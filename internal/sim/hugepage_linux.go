package sim

import "syscall"

// adviseHuge marks the n bytes at start, a huge-page-aligned range, for
// transparent huge pages. Addresses travel as integers only, so the
// advice may cover neighbouring allocations without the runtime's
// pointer checks objecting.
func adviseHuge(start, n uintptr) {
	syscall.Syscall(syscall.SYS_MADVISE, start, n, syscall.MADV_HUGEPAGE)
}
