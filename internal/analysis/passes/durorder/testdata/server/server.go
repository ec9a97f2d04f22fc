// Package server is durorder testdata loaded under the scoped import path
// tagdm/internal/server, importing the real wal package so the analyzer
// resolves Enqueue and Ticket.Wait exactly as it does on the tree.
package server

import (
	"net/http"
	"sync"

	"tagdm/internal/wal"
)

type srv struct {
	mu  sync.Mutex
	log *wal.Log
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	_ = w
	_ = code
	_ = v
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	_ = w
	_ = code
	_ = format
	_ = args
}

type snapshot struct{}

func (s *srv) capture() *snapshot { return &snapshot{} }

func (s *srv) installSnapshot(*snapshot) {}

// goodHandler follows the contract: apply+enqueue+capture under the lock,
// then wait, then publish and respond.
func (s *srv) goodHandler(w http.ResponseWriter, payload []byte) {
	s.mu.Lock()
	ticket := s.log.Enqueue(payload)
	snap := s.capture()
	s.mu.Unlock()
	if err := ticket.Wait(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "wal: %v", err)
		return
	}
	s.installSnapshot(snap)
	writeJSON(w, http.StatusOK, "ok")
}

// ackEarly responds before the ticket wait.
func (s *srv) ackEarly(w http.ResponseWriter, payload []byte) {
	s.mu.Lock()
	ticket := s.log.Enqueue(payload)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, "ok") // want `writeJSON before the WAL ticket wait`
	_ = ticket.Wait()
}

// publishEarly publishes a snapshot before the ticket wait.
func (s *srv) publishEarly(w http.ResponseWriter, payload []byte) {
	s.mu.Lock()
	ticket := s.log.Enqueue(payload)
	snap := s.capture()
	s.mu.Unlock()
	s.installSnapshot(snap) // want `installSnapshot before the WAL ticket wait`
	_ = ticket.Wait()
	writeJSON(w, http.StatusOK, "ok")
}

// rawAckEarly writes through the ResponseWriter directly before the wait.
func (s *srv) rawAckEarly(w http.ResponseWriter, payload []byte) {
	s.mu.Lock()
	ticket := s.log.Enqueue(payload)
	s.mu.Unlock()
	w.WriteHeader(http.StatusOK) // want `ResponseWriter\.WriteHeader before the WAL ticket wait`
	_ = ticket.Wait()
}

// enqueueUnlocked drops the write lock before enqueueing, unpinning WAL
// order from apply order.
func (s *srv) enqueueUnlocked(payload []byte) *wal.Ticket {
	s.mu.Lock()
	s.mu.Unlock()
	return s.log.Enqueue(payload) // want `wal Enqueue outside the write lock`
}

// suppressedEnqueue shows the escape hatch for a justified exception.
func (s *srv) suppressedEnqueue(payload []byte) *wal.Ticket {
	//tagdm:nolint durorder -- single-writer startup path, no concurrent apply
	return s.log.Enqueue(payload)
}
