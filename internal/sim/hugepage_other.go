//go:build !linux

package sim

// adviseHuge is a no-op: the platform has no transparent huge pages to
// ask for.
func adviseHuge(start, n uintptr) {}
