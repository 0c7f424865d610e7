package cluster

import (
	"bytes"
	"testing"
)

// FuzzStoreSync proves the cluster's two network decode surfaces —
// warm-export snapshots and gossip sync messages — never panic on
// arbitrary bytes, and that accepted snapshots round-trip exactly:
// decode → restore → re-encode reproduces the canonical encoding of the
// decoded entries.
func FuzzStoreSync(f *testing.F) {
	st := NewMemStore(0)
	for i := 0; i < 4; i++ {
		st.Put(entry(i))
	}
	if snap, err := EncodeSnapshot(st); err == nil {
		f.Add(snap)
	}
	f.Add([]byte(`{"version":1,"entries":[]}`))
	f.Add([]byte(`{"version":1,"entries":[{"key":"k","plan":"eyJ2IjoxfQ==","born_unix_nano":12}]}`))
	f.Add([]byte(`{"from":"a","digest":{"k":"abcd1234"}}`))
	f.Add([]byte(`{"entries":[{"key":"k","plan":"eA=="}],"digest":{"q":"ffff"}}`))
	f.Add([]byte(`{"version":9,"entries":null}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"version":1,"entries":[{"key":"","plan":""}]}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		// Snapshot surface: decode must never panic; a successful decode
		// must restore and re-encode to the identical canonical bytes.
		if entries, err := DecodeSnapshot(b); err == nil {
			st := NewMemStore(0)
			for _, e := range entries {
				if !st.Put(e) {
					t.Fatalf("decoded snapshot entry rejected by the store: %+v", e)
				}
			}
			if st.Len() != len(entries) {
				t.Fatalf("restore dropped entries: %d of %d", st.Len(), len(entries))
			}
			enc, err := EncodeSnapshot(st)
			if err != nil {
				t.Fatalf("re-encoding a decoded snapshot: %v", err)
			}
			back, err := DecodeSnapshot(enc)
			if err != nil {
				t.Fatalf("canonical snapshot does not decode: %v", err)
			}
			if len(back) != len(entries) {
				t.Fatalf("round trip changed the entry count: %d vs %d", len(back), len(entries))
			}
			byKey := make(map[string]Entry, len(entries))
			for _, e := range entries {
				byKey[e.Key] = e
			}
			for _, e := range back {
				orig, ok := byKey[e.Key]
				if !ok || !bytes.Equal(orig.Plan, e.Plan) || orig.BornUnixNano != e.BornUnixNano {
					t.Fatalf("round trip mutated entry %q", shortKey(e.Key))
				}
			}
			enc2, err := EncodeSnapshot(st)
			if err != nil || !bytes.Equal(enc, enc2) {
				t.Fatal("canonical encoding is not stable")
			}
		}

		// Gossip surface: decode + protocol application must never panic.
		if req, err := DecodeSyncRequest(b); err == nil {
			st := NewMemStore(8)
			st.Put(entry(0))
			resp := HandleSync(st, req)
			if resp.Applied < 0 || resp.Applied > len(req.Entries) {
				t.Fatalf("applied %d of %d pushed entries", resp.Applied, len(req.Entries))
			}
			for _, e := range resp.Entries {
				if err := e.Validate(); err != nil {
					t.Fatalf("sync response carries an invalid entry: %v", err)
				}
			}
			HandleSync(st, SyncRequest{Entries: MissingEntries(st, resp.Want)})
		}
	})
}
