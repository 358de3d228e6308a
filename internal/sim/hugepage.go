package sim

import "unsafe"

// HugePage is the size of a transparent huge page (2 MiB on x86-64 and
// arm64 Linux). A model whose build-time state reaches one huge page backs
// the state its events touch with huge pages (Kernel.UseHugePages,
// AdviseHuge): at paper scale that state is tens of megabytes touched at
// random, far beyond what the TLB maps in 4 KiB pages.
const HugePage = 2 << 20

// basePage is the smallest range worth advising: anything shorter is a
// small object in a span it shares with other allocations.
const basePage = 4 << 10

// AdviseHuge asks the OS to back every 2 MiB page that s's backing array
// spans, and the page after them, with huge pages. The advice only takes
// on memory nothing has touched yet: a 2 MiB page with a base page
// already faulted in stays on base pages. Hence the page after: the heap
// grows upward, so that is where the next allocations land, and advised
// early it comes in huge whatever lands there first, even an object the
// allocator writes a header into before its caller could advise it. The
// advice never changes a byte, of s or of the neighbours it covers, so
// errors are ignored; it is a no-op off Linux and for a nil, empty or
// sub-page slice.
func AdviseHuge[T any](s []T) {
	var zero T
	start, end := hugeSpan(uintptr(unsafe.Pointer(unsafe.SliceData(s))), uintptr(cap(s))*unsafe.Sizeof(zero))
	if start < end {
		adviseHuge(start, end-start)
	}
}

// hugeSpan returns the huge-page-aligned range [start, end) that covers
// the n bytes at p and the huge page after them, or an empty one for a
// range under one base page.
func hugeSpan(p, n uintptr) (start, end uintptr) {
	if p == 0 || n < basePage {
		return 0, 0
	}
	return p &^ (HugePage - 1), (p+n+HugePage-1)&^(HugePage-1) + HugePage
}
