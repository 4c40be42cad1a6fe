package fab

import (
	"testing"

	"act/internal/units"
)

func BenchmarkCPA(b *testing.B) {
	f, err := New(Node7)
	if err != nil {
		b.Fatal(err)
	}
	area := units.CM2(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.CPA(area); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPAAcrossNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CPAAcrossNodes(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Resolve(16); err != nil {
			b.Fatal(err)
		}
	}
}
