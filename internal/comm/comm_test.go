package comm

import (
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSendRecvPair(t *testing.T) {
	f := NewFabric(2)
	err := f.Run(func(r *Rank) error {
		if r.ID == 0 {
			r.Send(1, 7, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			n := r.Recv(0, 7, buf)
			if n != 3 || buf[0] != 1 || buf[2] != 3 {
				t.Errorf("recv got n=%d buf=%v", n, buf)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	f := NewFabric(2)
	err := f.Run(func(r *Rank) error {
		if r.ID == 0 {
			data := []float64{5}
			r.Send(1, 0, data)
			data[0] = -1 // must not affect the message
		} else {
			buf := make([]float64, 1)
			r.Recv(0, 0, buf)
			if buf[0] != 5 {
				t.Errorf("payload mutated after send: %v", buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	f := NewFabric(2)
	err := f.Run(func(r *Rank) error {
		if r.ID == 0 {
			r.Send(1, 1, []float64{10})
			r.Send(1, 2, []float64{20})
			r.Send(1, 1, []float64{11})
		} else {
			buf := make([]float64, 1)
			r.Recv(0, 2, buf)
			if buf[0] != 20 {
				t.Errorf("tag 2 got %v", buf[0])
			}
			r.Recv(0, 1, buf)
			if buf[0] != 10 {
				t.Errorf("tag 1 first got %v (FIFO per tag violated)", buf[0])
			}
			r.Recv(0, 1, buf)
			if buf[0] != 11 {
				t.Errorf("tag 1 second got %v", buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAcquirePostTakeRelease: the loaned-slot exchange both ranks of a pair
// run at once — fill a slot of the fabric, post it, take the peer's, read
// it in place, hand it back.
func TestAcquirePostTakeRelease(t *testing.T) {
	f := NewFabric(2)
	err := f.Run(func(r *Rank) error {
		other := 1 - r.ID
		s := r.Acquire(other, 2)
		s.Data[0], s.Data[1] = float64(r.ID), 9
		r.Post(other, 3, s)
		got := r.Take(other, 3)
		if len(got.Data) != 2 || got.Data[0] != float64(other) || got.Data[1] != 9 {
			t.Errorf("rank %d: took %v", r.ID, got.Data)
		}
		r.Release(got)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfMessaging(t *testing.T) {
	f := NewFabric(1)
	err := f.Run(func(r *Rank) error {
		r.Send(0, 5, []float64{3.14})
		buf := make([]float64, 1)
		r.Recv(0, 5, buf)
		if buf[0] != 3.14 {
			t.Errorf("self message got %v", buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	const n = 4
	f := NewFabric(n)
	var phase1 atomic.Int32
	err := f.Run(func(r *Rank) error {
		phase1.Add(1)
		r.Barrier()
		if got := phase1.Load(); got != n {
			t.Errorf("rank %d passed barrier with %d/%d arrived", r.ID, got, n)
		}
		// Reusability: a second barrier round must also work.
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum(t *testing.T) {
	const n = 5
	f := NewFabric(n)
	err := f.Run(func(r *Rank) error {
		got := r.AllReduceSum([]float64{1, float64(r.ID)})
		if got[0] != n {
			t.Errorf("rank %d: sum[0] = %g, want %d", r.ID, got[0], n)
		}
		if got[1] != 0+1+2+3+4 {
			t.Errorf("rank %d: sum[1] = %g, want 10", r.ID, got[1])
		}
		// Twice in a row (scratch reuse).
		got2 := r.AllReduceSum([]float64{2})
		if got2[0] != 2*n {
			t.Errorf("rank %d: second reduce = %g", r.ID, got2[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	f := NewFabric(2)
	err := f.Run(func(r *Rank) error {
		if r.ID == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run returned nil after a rank panicked")
	}
}

func TestRingExchangeManyRanks(t *testing.T) {
	const n = 8
	f := NewFabric(n)
	err := f.Run(func(r *Rank) error {
		right := (r.ID + 1) % n
		left := (r.ID - 1 + n) % n
		buf := make([]float64, 1)
		r.Send(right, 0, []float64{float64(r.ID)})
		r.Recv(left, 0, buf)
		if buf[0] != float64(left) {
			t.Errorf("rank %d: got %v from left, want %d", r.ID, buf[0], left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommTimeAccounting(t *testing.T) {
	f := NewFabric(2)
	err := f.Run(func(r *Rank) error {
		if r.ID == 0 {
			time.Sleep(30 * time.Millisecond)
			r.Send(1, 0, []float64{1})
		} else {
			buf := make([]float64, 1)
			r.Recv(0, 0, buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := f.CommTimes()
	if ts[1] < 20*time.Millisecond {
		t.Errorf("rank 1 comm time %v, want >= ~30ms of blocking", ts[1])
	}
	if ts[0] > 20*time.Millisecond {
		t.Errorf("rank 0 comm time %v, want small (a send never waits for its receiver)", ts[0])
	}
}

func TestByteAndMessageCounting(t *testing.T) {
	f := NewFabric(2)
	err := f.Run(func(r *Rank) error {
		if r.ID == 0 {
			r.Send(1, 0, make([]float64, 10))
			r.Send(1, 1, make([]float64, 5))
		} else {
			buf := make([]float64, 10)
			r.Recv(0, 0, buf)
			r.Recv(0, 1, buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.BytesSent()[0]; got != 8*15 {
		t.Errorf("bytes sent = %d, want 120", got)
	}
	if got := f.MessagesSent()[0]; got != 2 {
		t.Errorf("messages sent = %d, want 2", got)
	}
}

func TestDelayModelSlowsDelivery(t *testing.T) {
	const wire = 25 * time.Millisecond
	f := NewFabric(2).WithDelay(func(src, dst, bytes int) time.Duration { return wire })
	start := time.Now()
	err := f.Run(func(r *Rank) error {
		if r.ID == 0 {
			r.Send(1, 0, []float64{1})
		} else {
			buf := make([]float64, 1)
			r.Recv(0, 0, buf)
			if e := time.Since(start); e < wire {
				t.Errorf("delivery after %v, want >= %v", e, wire)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargePayloadThroughput(t *testing.T) {
	const n = 1 << 16
	f := NewFabric(2)
	err := f.Run(func(r *Rank) error {
		if r.ID == 0 {
			data := make([]float64, n)
			for i := range data {
				data[i] = math.Sqrt(float64(i))
			}
			r.Send(1, 0, data)
		} else {
			buf := make([]float64, n)
			r.Recv(0, 0, buf)
			for i := 0; i < n; i += 997 {
				if buf[i] != math.Sqrt(float64(i)) {
					t.Fatalf("corruption at %d", i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSlotsRecycleBitExact is the seeded property test of the transport:
// random sizes — zero, repeats, and sizes that outgrow every slot of the
// pair — to the right neighbor and to the rank itself, several messages in
// flight per pair, tags reused from round to round and taken out of send
// order. Every payload must read back bit for bit while later rounds travel
// in the slots earlier rounds released, and no pair may end up holding more
// slots than it can have had in flight.
func TestSlotsRecycleBitExact(t *testing.T) {
	const ranks, rounds, inFlight = 3, 60, 4
	type round struct {
		tag, n [inFlight]int
		order  []int // the receiver's take order
	}
	rng := rand.New(rand.NewSource(18))
	var plan [ranks][ranks][rounds]round // [src][dst]
	for src := range plan {
		for dst := range plan[src] {
			for i := range plan[src][dst] {
				rd := &plan[src][dst][i]
				for k := 0; k < inFlight; k++ {
					rd.tag[k] = 3*k + rng.Intn(3) // distinct within the round
					rd.n[k] = rng.Intn(3) * rng.Intn(40)
					if rng.Intn(8) == 0 {
						rd.n[k] = 200 + 50*i // outgrows every slot so far
					}
				}
				rd.order = rng.Perm(inFlight)
			}
		}
	}
	word := func(src, dst, round, k, i int) float64 {
		return math.Float64frombits(uint64(src)<<56 | uint64(dst)<<48 | uint64(round)<<32 | uint64(k)<<24 | uint64(i))
	}
	f := NewFabric(ranks)
	err := f.Run(func(r *Rank) error {
		right, left := (r.ID+1)%ranks, (r.ID+ranks-1)%ranks
		for i := 0; i < rounds; i++ {
			for _, dst := range [2]int{r.ID, right} {
				rd := &plan[r.ID][dst][i]
				for k := 0; k < inFlight; k++ {
					s := r.Acquire(dst, rd.n[k])
					if len(s.Data) != rd.n[k] {
						t.Errorf("Acquire(%d) loaned %d values", rd.n[k], len(s.Data))
					}
					for j := range s.Data {
						s.Data[j] = word(r.ID, dst, i, k, j)
					}
					r.Post(dst, rd.tag[k], s)
				}
			}
			for _, src := range [2]int{left, r.ID} {
				rd := &plan[src][r.ID][i]
				for _, k := range rd.order {
					s := r.Take(src, rd.tag[k])
					if len(s.Data) != rd.n[k] {
						t.Errorf("rank %d round %d: message %d from %d holds %d values, want %d", r.ID, i, k, src, len(s.Data), rd.n[k])
						return nil
					}
					for j, x := range s.Data {
						if math.Float64bits(x) != math.Float64bits(word(src, r.ID, i, k, j)) {
							t.Errorf("rank %d round %d: message %d from %d corrupted at value %d", r.ID, i, k, src, j)
							return nil
						}
					}
					r.Release(s)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A ring of three lets a sender run at most two rounds ahead of its
	// receiver.
	for src := range f.pools {
		for dst := range f.pools[src] {
			if n := len(f.pools[src][dst].free); n > 3*inFlight {
				t.Errorf("pair %d -> %d ends with %d slots, more than it can have had in flight", src, dst, n)
			}
		}
	}
}

// TestPingPongAllocatesNothing: once a pair's pool holds its slots, a
// fixed-size round trip — through the loaned slots or through the copying
// Send/Recv on top of them — allocates nothing, with other tags pending
// or not.
func TestPingPongAllocatesNothing(t *testing.T) {
	const n = 512
	f := NewFabric(2)
	err := f.Run(func(r *Rank) error {
		peer := 1 - r.ID
		buf := make([]float64, n)
		trip := func() {
			if r.ID == 0 {
				s := r.Acquire(peer, n)
				s.Data[0] = 1
				r.Post(peer, 1, s)
				r.Send(peer, 2, buf)
				r.Recv(peer, 2, buf) // tag 1 arrives first and waits in the pending queue
				r.Release(r.Take(peer, 1))
			} else {
				r.Release(r.Take(peer, 1))
				r.Recv(peer, 2, buf)
				r.Send(peer, 2, buf)
				s := r.Acquire(peer, n)
				r.Post(peer, 1, s)
			}
		}
		// AllocsPerRun counts the whole process's mallocs, so rank 0's
		// reading covers the peer's half of its 1 + 20 trips too.
		if r.ID == 1 {
			for i := 0; i < 21; i++ {
				trip()
			}
		} else if a := testing.AllocsPerRun(20, trip); a != 0 {
			t.Errorf("%v allocations per round trip, want 0", a)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSlotMisusePanics: a slot is good for one trip along the pair it was
// acquired for. Posting it elsewhere, posting it twice, releasing a slot
// that was never taken or releasing twice must stop the rank, naming it
// and the pair, before a later message can be corrupted.
func TestSlotMisusePanics(t *testing.T) {
	for name, misuse := range map[string]func(r *Rank){
		"comm: rank 0 Post(dst=2, tag=5): slot is acquired, of the pair 0 -> 1": func(r *Rank) {
			r.Post(2, 5, r.Acquire(1, 4))
		},
		"comm: rank 0 Post(dst=0, tag=6): slot is posted, of the pair 0 -> 0": func(r *Rank) {
			s := r.Acquire(0, 4)
			r.Post(0, 5, s)
			r.Post(0, 6, s)
		},
		"comm: rank 0 Release: slot is acquired, of the pair 0 -> 0": func(r *Rank) {
			r.Release(r.Acquire(0, 4))
		},
		"comm: rank 0 Release: slot is free, of the pair 0 -> 0": func(r *Rank) {
			r.Post(0, 5, r.Acquire(0, 4))
			s := r.Take(0, 5)
			r.Release(s)
			r.Release(s)
		},
		"comm: rank 0 Release: slot is taken, of the pair 0 -> 1": func(r *Rank) {
			r.Release(&Slot{src: 0, dst: 1, state: slotTaken}) // some other rank's message
		},
	} {
		err := NewFabric(3).Run(func(r *Rank) error {
			if r.ID == 0 {
				misuse(r)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("Run returned %v, want a panic saying %q", err, name)
		}
	}
}
