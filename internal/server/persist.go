package server

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	fpspy "repro"
	"repro/internal/jobs"
)

// persistedJob is the on-disk form of one queued-but-unstarted
// submission: the clone bytes exactly as submitted (jobs.Encode
// output), plus the daemon-side identity needed to resume it under the
// same job ID. The state file is a gob of these; only the clone bytes
// inside it are in the jobs encoding.
type persistedJob struct {
	ID     string
	Name   string
	Client string
	Blob   []byte
	Config fpspy.Config
}

// saveState writes the pending queue to Options.StateFile crash-safely:
// the temp file is fully written and fsynced before the rename, and the
// containing directory is fsynced after it, so a crash at any point
// leaves either the old queue or the new one — never a torn file, and
// never a rename whose directory entry evaporates with the page cache.
// An empty queue still writes a file: a later restart must not
// resurrect an older, staler queue.
func (s *Server) saveState(pend []*jobRec) error {
	list := make([]persistedJob, 0, len(pend))
	for _, rec := range pend {
		list = append(list, persistedJob{
			ID: rec.id, Name: rec.name, Client: rec.client,
			Blob: rec.blob, Config: rec.cfg,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(list); err != nil {
		return fmt.Errorf("server: encode queue state: %w", err)
	}
	tmp := s.opts.StateFile + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("server: write queue state: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()      //nolint:errcheck // write error already reported
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("server: write queue state: %w", err)
	}
	// The data must be durable before the rename makes it reachable: a
	// rename committed ahead of its content is exactly the torn write
	// the temp file exists to prevent.
	if err := f.Sync(); err != nil {
		f.Close()      //nolint:errcheck // sync error already reported
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("server: sync queue state: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("server: close queue state: %w", err)
	}
	if err := os.Rename(tmp, s.opts.StateFile); err != nil {
		return fmt.Errorf("server: commit queue state: %w", err)
	}
	// Sync the directory so the rename itself survives a crash.
	dir, err := os.Open(filepath.Dir(s.opts.StateFile))
	if err != nil {
		return fmt.Errorf("server: open state dir: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("server: sync state dir: %w", err)
	}
	return nil
}

// loadState re-admits a persisted queue during New. Each clone passes
// through jobs.Decode (so a corrupted state file cannot smuggle an
// invalid program past validation), keeps its original job ID, and is
// re-admitted through admitLocked like any submission. The state file
// is consumed: it is removed once its jobs are re-admitted.
func (s *Server) loadState() error {
	// A leftover temp file is a torn write from a crashed save: it is
	// never loaded, only swept, so a partial state can't masquerade as
	// the committed queue.
	os.Remove(s.opts.StateFile + ".tmp") //nolint:errcheck // best-effort sweep
	data, err := os.ReadFile(s.opts.StateFile)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: read queue state: %w", err)
	}
	var list []persistedJob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&list); err != nil {
		return fmt.Errorf("server: decode queue state %s: %w", filepath.Base(s.opts.StateFile), err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range list {
		j, err := jobs.Decode(p.Blob)
		if err != nil {
			return fmt.Errorf("server: persisted job %s: %w", p.ID, err)
		}
		key, _ := BlobKey(p.Blob, p.Config) // Decode accepted its header
		rec := &jobRec{
			id: p.ID, name: p.Name, client: p.Client, key: key,
			blob: p.Blob, cfg: p.Config, job: j,
		}
		if seq := jobSeq(p.ID); seq > s.seq {
			s.seq = seq
		}
		if err := s.admitLocked(rec, false); err != nil {
			return fmt.Errorf("server: queue depth %d too small for persisted state (%d jobs)",
				s.opts.QueueDepth, len(list))
		}
	}
	return os.Remove(s.opts.StateFile)
}
