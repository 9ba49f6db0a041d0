package core

// CommittedPage returns the page the agent has committed under key (nil
// if absent), for tests outside the package that compare replica state
// with the primary's memory.
func (b *BackupAgent) CommittedPage(key uint64) []byte { return b.store.Get(key) }
