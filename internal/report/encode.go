// The canonical JSON encoder and its two scalar appenders. Encode is the
// oracle every result document is held to; AppendJSONFloat and
// AppendJSONString write one number or one string with the same bytes, so
// code that lays a document out by hand (colbatch's columnar encoder,
// script's result envelope) cannot drift from it on a single value.

package report

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Encode writes v as the canonical result document: two-space indented
// JSON with a trailing newline — the exact encoder behind cmd/act -format
// json, actd's /v1/footprint cache values, and the fleet documents. Every
// producer funnels through here so byte-identity across surfaces holds by
// construction.
func Encode(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// AppendJSONFloat appends f the way encoding/json does: shortest
// round-trip form, 'f' format except for very small/large magnitudes,
// with the exponent's leading zero stripped ("e-09" → "e-9"). It reports
// false, appending nothing, for NaN and ±Inf, which encoding/json rejects.
func AppendJSONFloat(buf []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return buf, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, true
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s quoted the way an encoding/json Encoder does
// with HTML escaping on (its default, and Encode's): ASCII other than
// control chars, quote, backslash, and <>& passes through; the short
// escapes cover \b \f \n \r \t; other control chars become \u00XX; invalid
// UTF-8 bytes become U+FFFD; U+2028/U+2029 are escaped for JS embedding.
func AppendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '\\', '"':
				buf = append(buf, '\\', c)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	buf = append(buf, '"')
	return buf
}
