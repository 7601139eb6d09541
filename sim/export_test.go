package sim

// Replayed returns the agent-rounds the session's most recent run
// replayed from block records instead of walking them.
func (s *Session) Replayed() uint64 { return s.stats.replayed }
