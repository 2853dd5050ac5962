package kvstore

import "testing"

// TestNamesReissueReleased: handles are dense from 0, a released handle
// is issued again before the table grows, and the table grows by doubling.
func TestNamesReissueReleased(t *testing.T) {
	n := NewNames()
	for i := 0; i < 3; i++ {
		if h := n.Name(id(i)); h != Handle(i) {
			t.Fatalf("id %d named %d, want %d", i, h, i)
		}
	}
	n.Release(1)
	n.Release(0)
	if n.Len() != 1 || n.Issued() != 3 {
		t.Fatalf("after two releases: %d live of %d issued, want 1 of 3", n.Len(), n.Issued())
	}
	for _, want := range []Handle{0, 1, 3} {
		if h := n.Name(id(10 + int(want))); h != want {
			t.Fatalf("named %d, want %d (released handles first, last released first)", h, want)
		}
	}
	if n.ID(1) != id(11) || n.Len() != 4 || n.Issued() != 4 {
		t.Fatalf("reissued handle 1 names the wrong id, or %d live of %d issued, want 4 of 4", n.Len(), n.Issued())
	}
	for i := n.Issued(); i < 1000; i++ {
		n.Name(id(100 + i))
	}
	if c := cap(n.ids); c != 1024 {
		t.Fatalf("1000 ids in a table of capacity %d, want 1024 (doubling from 64)", c)
	}
}

// TestNamesMixedNaming: an id holds one live handle whichever path names
// it first — the serving runtime's Name, or a chunk.ID method's Intern —
// and a released id is named anew.
func TestNamesMixedNaming(t *testing.T) {
	// Name first: the first chunk.ID call builds the id map from the live
	// handles, skipping released ones.
	n := NewNames()
	ts := n.MustTiered(threeTiers(100, 100, 0), LRU)
	n.Name(id(0))
	h := n.Name(id(1))
	gone := n.Name(id(2))
	n.Release(gone)
	if err := ts.PutH(h, Bytes(10)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ts.Get(id(1)); !ok {
		t.Fatal("Get by id missed the entry written by its handle")
	}
	if got := n.Intern(id(1)); got != h {
		t.Fatalf("Intern gave id 1 handle %d, Name gave %d", got, h)
	}
	if got := n.Intern(id(2)); got != gone || n.Len() != 3 {
		t.Fatalf("released id 2 interned as %d with %d live, want the released handle %d reissued and 3 live",
			got, n.Len(), gone)
	}

	// A chunk.ID method first: Name then finds the live handle.
	n = NewNames()
	ts = n.MustTiered(threeTiers(100, 100, 0), LRU)
	if err := ts.Put(id(5), Bytes(10)); err != nil {
		t.Fatal(err)
	}
	h = n.Name(id(5))
	if !ts.Contains(h) || n.Len() != 1 {
		t.Fatalf("Name after Put: handle %d held %v, %d live handles, want the Put's entry and 1", h, ts.Contains(h), n.Len())
	}
	// Released after its Remove, the id is named anew by either path.
	ts.RemoveH(h)
	n.Release(h)
	if n.Len() != 0 {
		t.Fatalf("%d live handles after the release", n.Len())
	}
	if got := n.Name(id(6)); got != h {
		t.Fatalf("the next id got handle %d, want the released %d", got, h)
	}
	if got := n.Intern(id(5)); got == h || n.Len() != 2 {
		t.Fatalf("id 5 interned as %d with %d live, want a new handle beside id 6's %d", got, n.Len(), h)
	}
	if ts.Contains(n.Intern(id(5))) || ts.Contains(h) {
		t.Fatal("a renamed id found the entry removed before its release")
	}
}
