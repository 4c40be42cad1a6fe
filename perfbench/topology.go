package main

// Starting and stopping actd in process: one member for each mix, three
// cluster members for the traced run's cluster replay. Each member serves
// through actd's own Serve on a 127.0.0.1 listener. A traced run adds a
// second front door on member 0 whose handler is actd's Handler() wrapped
// in a timer, so the same server state answers both the untraced and the
// traced phase.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"act/internal/serve"
)

type member struct {
	srv  *serve.Server
	url  string
	done chan error
}

type topology struct {
	members []*member

	// The traced front door on member 0 (nil until traceFront).
	traceURL  string
	traceSrv  *http.Server
	traceDone chan error
	timer     *handlerTimer
}

// handlerTimer records how long actd's handler took for the last request.
// The load is one closed-loop connection, so at most one request is in
// flight and the client reads the value after its response completes.
type handlerTimer struct {
	h    http.Handler
	last atomic.Int64
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	t.last.Store(int64(time.Since(start)))
}

// quietLogger keeps actd's default JSON request log formatting but
// discards the bytes, so terminal or pipe speed is not measured.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

// startTopology starts n members; n > 1 joins them into a cluster.
func startTopology(n int) (*topology, error) {
	t := &topology{}
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := range lns {
		srv := serve.New(serve.Config{Logger: quietLogger()})
		if n > 1 {
			if err := srv.EnableCluster(serve.ClusterConfig{Self: urls[i], Peers: urls}); err != nil {
				for _, l := range lns[i:] {
					l.Close()
				}
				t.close()
				return nil, err
			}
		}
		m := &member{srv: srv, url: urls[i], done: make(chan error, 1)}
		go func(ln net.Listener) { m.done <- srv.Serve(ln) }(lns[i])
		t.members = append(t.members, m)
	}
	return t, nil
}

// front is member 0's URL, where the load and the checks go.
func (t *topology) front() string { return t.members[0].url }

// traceFront opens member 0's timed front door and returns its URL.
func (t *topology) traceFront() (string, *handlerTimer, error) {
	if t.traceSrv != nil {
		return t.traceURL, t.timer, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	t.timer = &handlerTimer{h: t.members[0].srv.Handler()}
	// Same server settings actd's own Serve uses.
	t.traceSrv = &http.Server{Handler: t.timer, ReadHeaderTimeout: 10 * time.Second}
	t.traceURL = "http://" + ln.Addr().String()
	t.traceDone = make(chan error, 1)
	go func() { t.traceDone <- t.traceSrv.Serve(ln) }()
	return t.traceURL, t.timer, nil
}

// close shuts every member down and waits for each Serve to return.
func (t *topology) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if t.traceSrv != nil {
		errs = append(errs, t.traceSrv.Shutdown(ctx))
		if err := <-t.traceDone; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	for _, m := range t.members {
		errs = append(errs, m.srv.Shutdown(ctx), <-m.done)
	}
	return errors.Join(errs...)
}

// post sends one request outside any measurement and demands a 200.
func post(hc *http.Client, url, ctype string, body []byte) ([]byte, error) {
	resp, err := hc.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s answered %d: %.200s", url, resp.StatusCode, out)
	}
	return out, nil
}

func get(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s answered %d: %.200s", url, resp.StatusCode, out)
	}
	return out, nil
}

// bulkLoad ingests the initial device set through the front member.
func bulkLoad(hc *http.Client, base string, f *fleetInputs) error {
	n := 0
	for _, chunk := range f.bulk {
		out, err := post(hc, base+"/v1/fleet/devices", "application/x-ndjson", chunk)
		if err != nil {
			return err
		}
		var res struct {
			Upserted int `json:"upserted"`
		}
		if err := json.Unmarshal(out, &res); err != nil {
			return fmt.Errorf("bulk ingest answer: %w", err)
		}
		n += res.Upserted
	}
	if n != fleetDevices {
		return fmt.Errorf("bulk ingest upserted %d of %d devices", n, fleetDevices)
	}
	return nil
}

// primeCache fills the footprint cache with the hottest singles.
func primeCache(hc *http.Client, base string, d *designInputs) error {
	for _, b := range d.primeBatches {
		if _, err := post(hc, base+"/v1/footprint", "application/json", b); err != nil {
			return err
		}
	}
	return nil
}
