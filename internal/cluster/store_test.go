package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func entry(i int) Entry {
	return Entry{
		Key:          fmt.Sprintf(`{"platform":{"rows":%d,"cols":1},"tmax_c":65}`, i+1),
		Plan:         []byte(fmt.Sprintf(`{"throughput":%d.5}`, i)),
		BornUnixNano: int64(1000 + i),
	}
}

func TestMemStorePutGetValidation(t *testing.T) {
	st := NewMemStore(8)
	e := entry(0)
	if !st.Put(e) {
		t.Fatal("valid entry rejected")
	}
	if st.Put(e) {
		t.Fatal("duplicate key accepted (first-write-wins violated)")
	}
	got, ok := st.Get(e.Key)
	if !ok || !bytes.Equal(got.Plan, e.Plan) || got.BornUnixNano != e.BornUnixNano {
		t.Fatalf("get mismatch: %+v", got)
	}
	// The incumbent's bytes survive a conflicting Put.
	if st.Put(Entry{Key: e.Key, Plan: []byte("other")}) {
		t.Fatal("conflicting Put accepted")
	}
	got, _ = st.Get(e.Key)
	if !bytes.Equal(got.Plan, e.Plan) {
		t.Fatal("conflicting Put replaced the incumbent")
	}

	bad := []Entry{
		{Key: "", Plan: []byte("x")},
		{Key: "k", Plan: nil},
		{Key: strings.Repeat("k", MaxKeyBytes+1), Plan: []byte("x")},
		{Key: "k", Plan: bytes.Repeat([]byte("x"), MaxPlanBytes+1)},
	}
	for i, e := range bad {
		if e.Validate() == nil {
			t.Fatalf("bad entry %d passed Validate", i)
		}
		if st.Put(e) {
			t.Fatalf("bad entry %d accepted", i)
		}
	}
	if st.Len() != 1 || st.Cap() != 8 {
		t.Fatalf("len %d cap %d, want 1/8", st.Len(), st.Cap())
	}
}

func TestMemStoreFIFOEviction(t *testing.T) {
	st := NewMemStore(3)
	for i := 0; i < 5; i++ {
		if !st.Put(entry(i)) {
			t.Fatalf("put %d rejected", i)
		}
	}
	if st.Len() != 3 {
		t.Fatalf("len %d, want cap 3", st.Len())
	}
	for i := 0; i < 2; i++ { // oldest two evicted
		if _, ok := st.Get(entry(i).Key); ok {
			t.Fatalf("entry %d survived eviction", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := st.Get(entry(i).Key); !ok {
			t.Fatalf("entry %d evicted out of order", i)
		}
	}
}

func TestMemStoreImmutableAndSorted(t *testing.T) {
	st := NewMemStore(0)
	plan := []byte(`{"v":1}`)
	st.Put(Entry{Key: "b", Plan: plan})
	st.Put(Entry{Key: "a", Plan: []byte(`{"v":2}`)})
	plan[1] = 'X' // caller mutates its buffer after Put
	got, _ := st.Get("b")
	if !bytes.Equal(got.Plan, []byte(`{"v":1}`)) {
		t.Fatal("store aliased the caller's plan buffer")
	}
	ents := st.Entries()
	if len(ents) != 2 || ents[0].Key != "a" || ents[1].Key != "b" {
		t.Fatalf("entries not key-sorted: %+v", ents)
	}
	d := st.Digest()
	if len(d) != 2 || d["b"] != PlanHash([]byte(`{"v":1}`)) {
		t.Fatalf("digest mismatch: %v", d)
	}
	if st.Cap() != DefaultStoreCap {
		t.Fatalf("cap %d, want default %d", st.Cap(), DefaultStoreCap)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := NewMemStore(0)
	for i := 0; i < 7; i++ {
		st.Put(entry(i))
	}
	b, err := EncodeSnapshot(st)
	if err != nil {
		t.Fatal(err)
	}
	st2 := NewMemStore(0)
	n, err := Restore(st2, b)
	if err != nil || n != 7 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	if !Converged(st.Digest(), st2.Digest()) {
		t.Fatal("restored store diverges from the original")
	}
	// Canonical: converged stores export byte-identical snapshots.
	b2, err := EncodeSnapshot(st2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("snapshot encoding is not canonical across stores")
	}
	// Restoring into a warm store only adds what is missing.
	st3 := NewMemStore(0)
	st3.Put(entry(0))
	if n, err := Restore(st3, b); err != nil || n != 6 {
		t.Fatalf("warm restore: n=%d err=%v", n, err)
	}
}

func TestDecodeSnapshotStrict(t *testing.T) {
	cases := map[string]string{
		"garbage":        `not json`,
		"trailing":       `{"version":1,"entries":[]}{"x":1}`,
		"unknown field":  `{"version":1,"entries":[],"extra":true}`,
		"bad version":    `{"version":2,"entries":[]}`,
		"empty key":      `{"version":1,"entries":[{"key":"","plan":"eA=="}]}`,
		"no plan":        `{"version":1,"entries":[{"key":"k"}]}`,
		"duplicate keys": `{"version":1,"entries":[{"key":"k","plan":"eA=="},{"key":"k","plan":"eA=="}]}`,
	}
	for name, body := range cases {
		if _, err := DecodeSnapshot([]byte(body)); err == nil {
			t.Errorf("%s: decode accepted %q", name, body)
		}
	}
	if got, err := DecodeSnapshot([]byte(`{"version":1,"entries":[]}`)); err != nil || len(got) != 0 {
		t.Fatalf("empty snapshot: %v %v", got, err)
	}
}

func TestDecodeSyncRequestStrict(t *testing.T) {
	cases := map[string]string{
		"garbage":           `[`,
		"trailing":          `{}{}`,
		"unknown field":     `{"bogus":1}`,
		"empty digest key":  `{"digest":{"":"abcd"}}`,
		"empty digest hash": `{"digest":{"k":""}}`,
		"bad entry":         `{"entries":[{"key":"","plan":"eA=="}]}`,
	}
	for name, body := range cases {
		if _, err := DecodeSyncRequest([]byte(body)); err == nil {
			t.Errorf("%s: decode accepted %q", name, body)
		}
	}
	req, err := DecodeSyncRequest([]byte(`{"from":"a","digest":{"k":"abcd"}}`))
	if err != nil || req.From != "a" || req.Digest["k"] != "abcd" {
		t.Fatalf("valid request rejected: %+v %v", req, err)
	}
}

// Two stores with disjoint-and-overlapping contents converge in one
// pull-push round, in both directions.
func TestHandleSyncConvergence(t *testing.T) {
	a, b := NewMemStore(0), NewMemStore(0)
	for i := 0; i < 6; i++ {
		a.Put(entry(i))
	}
	for i := 4; i < 10; i++ {
		b.Put(entry(i))
	}

	// Pull phase: A sends its digest to B.
	resp := HandleSync(b, SyncRequest{From: "a", Digest: a.Digest()})
	if len(resp.Entries) != 4 { // entries 6..9
		t.Fatalf("pull returned %d entries, want 4", len(resp.Entries))
	}
	if len(resp.Want) != 4 { // entries 0..3
		t.Fatalf("want list has %d keys, want 4", len(resp.Want))
	}
	for _, e := range resp.Entries {
		a.Put(e)
	}
	// Push phase: A sends what B asked for.
	push := HandleSync(b, SyncRequest{From: "a", Entries: MissingEntries(a, resp.Want)})
	if push.Applied != 4 {
		t.Fatalf("push applied %d, want 4", push.Applied)
	}
	if !Converged(a.Digest(), b.Digest()) {
		t.Fatal("stores did not converge after one round")
	}
	// Converged stores: a further round is a no-op.
	resp = HandleSync(b, SyncRequest{From: "a", Digest: a.Digest()})
	if len(resp.Entries) != 0 || len(resp.Want) != 0 || resp.Applied != 0 {
		t.Fatalf("converged round not a no-op: %+v", resp)
	}
}

// Every gossip message stays under the wire cap it is read under, even
// when the stores hold several caps' worth of plans: a cold requester's
// pull and its push both stop at the budget, and repeated rounds carry
// the rest until the pair converges.
func TestSyncMessagesBoundedByWireCap(t *testing.T) {
	const budget = 64 << 10
	plan := bytes.Repeat([]byte("p"), 2<<10) // ~2.7 KiB per encoded entry
	a, b := NewMemStore(0), NewMemStore(0)
	for i := 0; i < 200; i++ { // ~540 KiB per store, > 8 budgets
		a.Put(Entry{Key: fmt.Sprintf(`{"a":%d}`, i), Plan: plan})
		b.Put(Entry{Key: fmt.Sprintf(`{"b":%d}`, i), Plan: plan})
	}
	wire := func(v any) int {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return len(raw)
	}
	rounds := 0
	for ; !Converged(a.Digest(), b.Digest()); rounds++ {
		if rounds == 40 {
			t.Fatalf("stores did not converge in %d rounds (%d vs %d entries)", rounds, a.Len(), b.Len())
		}
		pull := SyncRequest{From: "a", Digest: a.Digest()}
		resp := handleSync(b, pull, budget)
		if n := wire(resp); n > budget {
			t.Fatalf("round %d: reply of %d bytes exceeds the %d cap", rounds, n, budget)
		}
		for _, e := range resp.Entries {
			a.Put(e)
		}
		push := SyncRequest{From: "a", Entries: missingEntries(a, resp.Want, budget)}
		if n := wire(push); n > budget {
			t.Fatalf("round %d: push of %d bytes exceeds the %d cap", rounds, n, budget)
		}
		if len(resp.Entries) == 0 && len(push.Entries) == 0 {
			t.Fatalf("round %d moved nothing before convergence", rounds)
		}
		handleSync(b, push, budget)
	}
	if rounds < 2 || a.Len() != 400 {
		t.Fatalf("converged in %d rounds with %d entries; the stores must outgrow one message", rounds, a.Len())
	}
}
