package index

import "testing"

// TestRecyclerRetention pins the rules that bound a Recycler: Reuse hands
// back the oldest item of a class, and only once it is at or below safe;
// and a Retire into a full Recycler drops the oldest item of its own
// class, or the oldest item held when its class has none.
func TestRecyclerRetention(t *testing.T) {
	var r Recycler[int]
	r.Retire(1, 8, 1)
	r.Retire(2, 8, 2)
	if _, ok := r.Reuse(8, 0); ok {
		t.Fatal("Reuse handed back an item retired above safe")
	}
	for _, want := range []int{1, 2} {
		if x, ok := r.Reuse(8, 5); !ok || x != want {
			t.Fatalf("Reuse(8) = %d, %v; want the oldest item, %d", x, ok, want)
		}
	}

	// Full: even items are class 8, odd ones class 16, oldest first.
	for i := range recycleCap {
		r.Retire(i, 8+8*(i%2), uint64(100+i))
	}
	r.Retire(1000, 16, 200) // drops item 1, class 16's oldest
	r.Retire(2000, 32, 201) // class 32 has none: drops item 0, the oldest held
	if r.n != recycleCap {
		t.Fatalf("%d items held, want recycleCap (%d)", r.n, recycleCap)
	}
	for _, c := range []struct{ class, want int }{{8, 2}, {16, 3}, {32, 2000}} {
		if x, ok := r.Reuse(c.class, 1000); !ok || x != c.want {
			t.Errorf("Reuse(%d) = %d, %v; want %d", c.class, x, ok, c.want)
		}
	}
}
