// Repository-backed serving: when Config.RepoDir is set, offline (RVAQ)
// statements are answered from the saved repository built by cmd/ingest
// instead of lazily re-ingesting the synthetic datasets, and the repository
// can be swapped for a newer generation without restarting — POST
// /repo/reload (or send the process SIGHUP, see cmd/serve). Reloads are
// all-or-nothing: the new generation is opened and fully verified first, the
// handle is swapped atomically, and queries already running on the old
// generation drain before its file handles close. A failed reload (missing
// directory, CorruptError) keeps the old repository serving.
package server

import (
	"errors"
	"net/http"
	"sync"
	"time"

	"svqact/internal/httpd"
	"svqact/internal/rank"
)

// repoHandle reference-counts one open repository so a reload can retire it
// while in-flight queries finish against it.
type repoHandle struct {
	repo *rank.Repository

	mu      sync.Mutex
	refs    int
	retired bool
}

func (h *repoHandle) acquire() {
	h.mu.Lock()
	h.refs++
	h.mu.Unlock()
}

func (h *repoHandle) release() {
	h.mu.Lock()
	h.refs--
	closeNow := h.retired && h.refs == 0
	h.mu.Unlock()
	if closeNow {
		_ = h.repo.Close()
	}
}

// retire marks the handle superseded; the underlying files close as soon as
// the last in-flight query releases its reference.
func (h *repoHandle) retire() {
	h.mu.Lock()
	h.retired = true
	closeNow := h.refs == 0
	h.mu.Unlock()
	if closeNow {
		_ = h.repo.Close()
	}
}

// Reload opens Config.RepoDir, verifies every member (checksums, manifest
// invariants), and atomically swaps it in as the serving repository. On
// failure the previous repository, if any, keeps serving.
func (s *Server) Reload() error {
	if s.cfg.RepoDir == "" {
		return errors.New("server: no repository configured")
	}
	repo, err := rank.OpenRepository(s.cfg.RepoDir)
	if err != nil {
		s.repoReloads["error"].Inc()
		if rank.IsCorrupt(err) {
			s.repoCorruption.Inc()
		}
		s.repoMu.Lock()
		s.repoFailed = true
		s.repoErr = err.Error()
		s.repoMu.Unlock()
		return err
	}
	h := &repoHandle{repo: repo}
	s.repoMu.Lock()
	old := s.repo
	s.repo = h
	recovered := s.repoFailed
	s.repoFailed = false
	s.repoErr = ""
	s.repoLoadedAt = time.Now()
	s.repoMu.Unlock()
	if old != nil {
		old.retire()
	}
	s.repoReloads["ok"].Inc()
	if recovered {
		s.repoRecoveries.Inc()
	}
	s.repoGeneration.Set(int64(repo.MaxGeneration()))
	s.repoMembers.Set(int64(len(repo.Videos())))
	s.log.Info("repository loaded",
		"dir", s.cfg.RepoDir, "videos", len(repo.Videos()),
		"generation", repo.MaxGeneration(), "recovered", recovered)
	return nil
}

// acquireRepo returns the live repository handle with a reference held (the
// caller must release it), or nil when none is loaded.
func (s *Server) acquireRepo() *repoHandle {
	s.repoMu.Lock()
	defer s.repoMu.Unlock()
	if s.repo == nil {
		return nil
	}
	s.repo.acquire()
	return s.repo
}

// RepoHealth is the repository section of the /healthz body.
type RepoHealth struct {
	Dir        string `json:"dir"`
	Generation int    `json:"generation"`
	Videos     int    `json:"videos"`
	// Failed is true when the most recent reload attempt was rejected
	// (the previously loaded repository, if any, keeps serving); Error
	// then carries the rejection's message so /repo/status explains what
	// went wrong, not just that something did.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
	// LastReload is the RFC3339 time the serving repository was last
	// (re)loaded successfully — rollout tooling uses it to tell "swapped
	// just now" from "still on the boot-time load".
	LastReload string `json:"last_reload,omitempty"`
}

func (s *Server) repoHealth() *RepoHealth {
	if s.cfg.RepoDir == "" {
		return nil
	}
	s.repoMu.Lock()
	h, failed, lastErr, loadedAt := s.repo, s.repoFailed, s.repoErr, s.repoLoadedAt
	s.repoMu.Unlock()
	rh := &RepoHealth{Dir: s.cfg.RepoDir, Failed: failed, Error: lastErr}
	if !loadedAt.IsZero() {
		rh.LastReload = loadedAt.UTC().Format(time.RFC3339Nano)
	}
	if h != nil {
		rh.Generation = h.repo.MaxGeneration()
		rh.Videos = len(h.repo.Videos())
	}
	return rh
}

func (s *Server) handleRepoReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpd.WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	if s.cfg.RepoDir == "" {
		httpd.WriteJSON(w, http.StatusNotFound, errorResponse{Error: "no repository configured (start with -repo)"})
		return
	}
	if err := s.Reload(); err != nil {
		s.log.Warn("repository reload failed", "dir", s.cfg.RepoDir, "error", err.Error())
		httpd.WriteJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	httpd.WriteJSON(w, http.StatusOK, s.repoHealth())
}

func (s *Server) handleRepoStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpd.WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only"})
		return
	}
	rh := s.repoHealth()
	if rh == nil {
		httpd.WriteJSON(w, http.StatusNotFound, errorResponse{Error: "no repository configured (start with -repo)"})
		return
	}
	httpd.WriteJSON(w, http.StatusOK, rh)
}
