package sim

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// TestAdviseHugeMarksMapping: on a kernel with transparent huge pages,
// the mapping that holds an advised slab carries the huge-page flag
// ("hg" in /proc/self/smaps) — the syscall reached the kernel with the
// right number and range.
func TestAdviseHugeMarksMapping(t *testing.T) {
	if _, err := os.Stat("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil {
		t.Skip("kernel without transparent huge pages")
	}
	slab := make([]byte, 2*HugePage)
	AdviseHuge(slab)
	addr := uintptr(unsafe.Pointer(&slab[HugePage]))
	flags, err := vmFlags(addr)
	if err != nil {
		t.Skip(err)
	}
	if !strings.Contains(" "+flags+" ", " hg ") {
		t.Fatalf("mapping of %#x has VmFlags %q, want hg", addr, flags)
	}
}

// vmFlags returns the VmFlags line of the /proc/self/smaps mapping that
// holds addr.
func vmFlags(addr uintptr) (string, error) {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return "", err
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var lo, hi uintptr
		if n, _ := fmt.Sscanf(line, "%x-%x", &lo, &hi); n == 2 && strings.Contains(line, " ") {
			in = lo <= addr && addr < hi
			continue
		}
		if rest, ok := strings.CutPrefix(line, "VmFlags:"); ok && in {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no mapping holds %#x", addr)
}
