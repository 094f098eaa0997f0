// Testdata for the lockcheck analyzer: unlock-on-every-path and
// blocking-while-held.
package lockcheck

import (
	"net/http"
	"sync"
)

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	vals map[string]int
	ch   chan int
}

// --- Rule 1: unlock on every path -----------------------------------

func (s *store) leakOnEarlyReturn(key string) int {
	s.mu.Lock() // want `s\.mu\.Lock\(\) is not unlocked on every path`
	v, ok := s.vals[key]
	if !ok {
		return -1 // leaks the lock
	}
	s.mu.Unlock()
	return v
}

func (s *store) leakRead() int {
	s.rw.RLock() // want `s\.rw\.RLock\(\) is not unlocked on every path`
	return len(s.vals)
}

func (s *store) deferRelease(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[key]
}

func (s *store) deferInLiteral(key string) int {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
	}()
	return s.vals[key]
}

func (s *store) unlockOnBothPaths(key string) int {
	s.mu.Lock()
	if v, ok := s.vals[key]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	return 0
}

func (s *store) pairInLoop(keys []string) int {
	n := 0
	for range keys {
		s.mu.Lock()
		n += len(s.vals)
		s.mu.Unlock()
	}
	return n
}

func (s *store) allowedLeak() {
	// Handed to a callback that unlocks; this analyzer cannot see it.
	//lint:allow lockcheck -- release happens in the monitor callback registered below
	s.mu.Lock()
}

// --- Rule 2: blocking while held ------------------------------------

func (s *store) sendWhileLocked(v int) {
	s.mu.Lock()
	s.ch <- v // want `s\.mu is held across a channel send`
	s.mu.Unlock()
}

func (s *store) recvWhileLocked() int {
	s.mu.Lock()
	v := <-s.ch // want `s\.mu is held across a channel receive`
	s.mu.Unlock()
	return v
}

func (s *store) httpWhileLocked(c *http.Client, url string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := c.Get(url) // want `s\.mu is held across a http\.Client call`
	return err
}

func (s *store) sendAfterUnlock(v int) {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- v
}

func (s *store) nonBlockingKick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1: // cannot block: the select has a default
	default:
	}
}

func (s *store) mergeOfLockedAndUnlocked(locked bool, v int) {
	if locked {
		s.mu.Lock()
		s.mu.Unlock()
	}
	s.ch <- v // not *definitely* held here: no report
}

func (s *store) spawnNotBlocking(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- v // runs in another goroutine: the lock holder does not block
	}()
}
