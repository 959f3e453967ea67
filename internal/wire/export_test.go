package wire

// WorkerCounts reports how many workers s has started so far and how
// many are idle now.
func WorkerCounts(s *Server) (spawned uint64, idle int) {
	return s.spawned.Load(), int(s.idle.Load())
}
