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
// per-worker shipped frames and breaker state — on every membership,
// quarantine, and frame event, via write-to-temp + atomic rename (a crash
// mid-save leaves the previous state intact). A restarted coordinator
// re-adopts the fleet: restored workers get a fresh lease (one TTL to
// heartbeat back in), their frames are not re-shipped, and quarantine
// continues where it left off. The queries in flight at a crash died with
// the process and are not recorded; an "assignments" array written by older
// coordinators is ignored on load.

// persistedState is the state-file document.
type persistedState struct {
	SavedAt time.Time         `json:"saved_at"`
	Workers []persistedWorker `json:"workers"`
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

// snapshotState renders the current registry under the locks, ready to
// marshal outside them.
func (c *Coordinator) snapshotState() persistedState {
	c.mu.Lock()
	ws := make([]*remoteWorker, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	st := persistedState{SavedAt: time.Now()}
	sort.Slice(ws, func(i, j int) bool { return ws[i].id < ws[j].id })
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
		c.persistErrors.Inc()
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
	c.restored.Add(restored)
	c.logf("dist: restored %d workers from %s (saved %s)", restored, c.cfg.StatePath, st.SavedAt.Format(time.RFC3339))
	return nil
}
