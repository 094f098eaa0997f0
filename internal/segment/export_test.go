package segment

// NextSegID returns the id the next created segment will get.
func (s *Store) NextSegID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}
