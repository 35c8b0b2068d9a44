package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/resultcache"
	"repro/internal/stats"
)

// cacheEntry is one result as micached would cache it.
type cacheEntry struct {
	workload, variant string
	scale             float64
	snap              stats.Snapshot
}

// replay passes entries through the public calls micached makes to
// serve and store them, timing each as a span: key derivation, a
// result-cache miss completed by its leader and then a hit, JSON
// encoding of the snapshot, a durable disk write, the disk index
// rebuild on reopening, and a disk read. Every value read back must
// equal the one written.
func replay(cfg core.Config, entries []cacheEntry, tr *tracer, dir string) error {
	rc := resultcache.New(len(entries)+1, 0)
	keys := make([]string, len(entries))
	for i, e := range entries {
		id := int64(i)
		s := tr.begin(id, "core.cellkey", -1)
		keys[i] = core.CellKey(cfg, e.workload, e.variant, e.scale)
		tr.end(s)
		_, hit, f, leader := rc.Acquire(keys[i])
		if hit || !leader {
			return fmt.Errorf("replay: %s was cached before it was completed", keys[i])
		}
		s = tr.begin(id, "resultcache.complete", -1)
		rc.Complete(f, e.snap, nil)
		tr.end(s)
	}
	for i, e := range entries {
		id := int64(i)
		s := tr.begin(id, "resultcache.acquire", -1)
		snap, hit, _, _ := rc.Acquire(keys[i])
		tr.end(s)
		if !hit || !snap.Equal(e.snap) {
			return fmt.Errorf("replay: result cache lost %s", keys[i])
		}
		s = tr.begin(id, "stats.json_encode", -1)
		_, err := json.Marshal(snap)
		tr.end(s)
		if err != nil {
			return err
		}
	}

	storeDir := filepath.Join(dir, "replay-store")
	defer os.RemoveAll(storeDir)
	st, err := persist.Open(storeDir, persist.Options{Fsync: true})
	if err != nil {
		return err
	}
	for i, e := range entries {
		s := tr.begin(int64(i), "persist.put", -1)
		err := st.Put(keys[i], e.snap)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	s := tr.begin(-1, "persist.open", -1)
	st, err = persist.Open(storeDir, persist.Options{Fsync: true})
	tr.end(s)
	if err != nil {
		return err
	}
	defer st.Close()
	for i, e := range entries {
		s := tr.begin(int64(i), "persist.get", -1)
		snap, ok, err := st.Get(keys[i])
		tr.end(s)
		if err != nil || !ok || !snap.Equal(e.snap) {
			return fmt.Errorf("replay: disk store lost %s (err %v)", keys[i], err)
		}
	}
	return nil
}

// finishTrace completes a traced run: the cache-layer replay over the
// run's results, span and CPU-profile metrics, and the span dump.
func finishTrace(res *childResult, tr *tracer, cfg core.Config, entries []cacheEntry, o runOpts, ops int) error {
	if err := replay(cfg, entries, tr, o.scratch); err != nil {
		return err
	}
	res.setSpans(tr)
	byLayer, total, err := foldProfile(o.profilePath())
	if err != nil {
		return err
	}
	res.setProfile(byLayer, total, ops)
	return tr.write(o.spansPath())
}
