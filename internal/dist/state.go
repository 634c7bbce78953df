package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hyper/internal/fault"
)

// Durable coordinator state. The registry used to live purely in memory, so
// a coordinator restart orphaned its fleet: workers kept heartbeating into
// 404s until re-registration, shipped-frame bookkeeping was lost (every
// frame re-shipped), and quarantine history evaporated (a misbehaving
// worker came back fully trusted). With CoordinatorConfig.StatePath set,
// the coordinator persists a small JSON document — worker registry,
// per-worker shipped frames, breaker state, and the assignments in flight
// at save time — on every membership, quarantine, and frame event, via
// write-to-temp + atomic rename (a crash mid-save leaves the previous
// state intact). A restarted coordinator re-adopts the fleet: restored
// workers get a fresh lease (one TTL to heartbeat back in), their frames
// are not re-shipped, and quarantine continues where it left off.
// Assignments found in the file are necessarily orphans — the queries that
// made them died with the previous process — so they are logged and
// dropped, never resumed.

// persistedState is the state-file document.
type persistedState struct {
	SavedAt     time.Time             `json:"saved_at"`
	Workers     []persistedWorker     `json:"workers"`
	Assignments []persistedAssignment `json:"assignments,omitempty"`
}

// persistedWorker is one registry entry: identity, shipped frames, and the
// raw circuit-breaker fields.
type persistedWorker struct {
	ID       string    `json:"id"`
	URL      string    `json:"url"`
	Frames   []string  `json:"frames,omitempty"`
	Fails    int       `json:"fails,omitempty"`
	Open     bool      `json:"open,omitempty"`
	OpenedAt time.Time `json:"opened_at,omitempty"`
}

// persistedAssignment is one dispatched-but-unanswered shard batch.
type persistedAssignment struct {
	Worker string `json:"worker"`
	Path   string `json:"path"`
	Shards []int  `json:"shards"`
}

// beginAssignment records a dispatched shard batch so the state file can
// name what was in flight if the coordinator dies before the answer.
func (c *Coordinator) beginAssignment(workerID, path string, shards []int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.assignSeq++
	id := c.assignSeq
	if c.assigns == nil {
		c.assigns = make(map[uint64]persistedAssignment)
	}
	c.assigns[id] = persistedAssignment{Worker: workerID, Path: path, Shards: shards}
	return id
}

func (c *Coordinator) endAssignment(id uint64) {
	c.mu.Lock()
	delete(c.assigns, id)
	c.mu.Unlock()
}

// snapshotState renders the current registry under the locks, ready to
// marshal outside them.
func (c *Coordinator) snapshotState() persistedState {
	c.mu.Lock()
	ws := make([]*remoteWorker, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	st := persistedState{SavedAt: time.Now()}
	for _, a := range c.assigns {
		st.Assignments = append(st.Assignments, a)
	}
	c.mu.Unlock()
	sort.Slice(ws, func(i, j int) bool { return ws[i].id < ws[j].id })
	sort.Slice(st.Assignments, func(i, j int) bool {
		if st.Assignments[i].Worker != st.Assignments[j].Worker {
			return st.Assignments[i].Worker < st.Assignments[j].Worker
		}
		return st.Assignments[i].Path < st.Assignments[j].Path
	})
	for _, w := range ws {
		pw := persistedWorker{ID: w.id, URL: w.url, Frames: w.frames.Keys()}
		sort.Strings(pw.Frames)
		pw.Fails, pw.Open, pw.OpenedAt = w.breaker.snapshot()
		st.Workers = append(st.Workers, pw)
	}
	return st
}

// saveState writes the state file. Persistence is strictly best-effort: a
// failed save (disk full, injected fault) is logged and counted, and never
// fails the membership or query event that triggered it.
func (c *Coordinator) saveState() {
	if c.cfg.StatePath == "" {
		return
	}
	st := c.snapshotState()
	// One save at a time: concurrent membership events would otherwise race
	// temp-file writes targeting the same rename destination.
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	if err := c.writeState(st); err != nil {
		c.persistErrors.Add(1)
		c.logf("dist: persisting coordinator state: %v", err)
	}
}

func (c *Coordinator) writeState(st persistedState) error {
	if err := c.faultHit(fault.PointPersist); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(c.cfg.StatePath)
	tmp, err := os.CreateTemp(dir, ".hyper-dist-state-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(append(raw, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return errors.Join(werr, cerr)
	}
	if err := os.Rename(tmp.Name(), c.cfg.StatePath); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// loadState re-adopts a persisted fleet at construction time. A missing
// file is a fresh start; a corrupt one is an error (refusing to silently
// discard state the operator asked to keep).
func (c *Coordinator) loadState() error {
	raw, err := os.ReadFile(c.cfg.StatePath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var st persistedState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("dist: corrupt state file %s: %w", c.cfg.StatePath, err)
	}
	c.mu.Lock()
	for _, pw := range st.Workers {
		// A fresh lease: the restored worker has one TTL to heartbeat back
		// in before it goes stale, rather than being judged on a lastBeat
		// from the previous incarnation's clock.
		w := c.newRemoteWorker(pw.ID, pw.URL)
		for _, id := range pw.Frames {
			// Shipped in the previous life: the build has nothing to do.
			_, _, _ = w.frames.Do(context.Background(), id, func() (struct{}, error) { return struct{}{}, nil })
		}
		w.breaker.restore(pw.Fails, pw.Open, pw.OpenedAt)
		c.workers[pw.ID] = w
	}
	restored := len(st.Workers)
	c.mu.Unlock()
	c.restored.Add(uint64(restored))
	c.logf("dist: restored %d workers from %s (saved %s)", restored, c.cfg.StatePath, st.SavedAt.Format(time.RFC3339))
	for _, a := range st.Assignments {
		// The query behind an in-flight assignment died with the previous
		// process; its client saw the crash. Name the orphan, drop it.
		c.logf("dist: orphaned in-flight assignment from previous run: worker=%s path=%s shards=%v", a.Worker, a.Path, a.Shards)
	}
	return nil
}
