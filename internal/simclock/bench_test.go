package simclock

import (
	"testing"
	"time"
)

// BenchmarkEventDispatch measures raw kernel throughput: how many simulated
// events per second the DES can process (the budget for 4096-worker fleets).
func BenchmarkEventDispatch(b *testing.B) {
	k := New()
	k.Go("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkManyProcs measures spawning and completing a fleet of processes.
func BenchmarkManyProcs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := New()
		for w := 0; w < 1000; w++ {
			k.Go("w", func(p *Proc) { p.Sleep(time.Second) })
		}
		k.Run()
	}
}
