package sim

import "unsafe"

// ChunkBytes returns the bytes of every bucket chunk the kernel's
// calendars hold — in buckets, parked, or on a free list — the memory its
// ring events take.
func (k *Kernel) ChunkBytes() int { return numChunks(k) * int(unsafe.Sizeof(chunk{})) }
