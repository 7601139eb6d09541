package sim

// Deprecated: the k-agent batch engine is gone, and every k-agent case
// runs on Session.RunMany. Batch stays only for older callers.
type Batch struct{}

// Deprecated: see Batch.
func NewBatch() *Batch { return &Batch{} }
