// Fixture: the kernel's time type, which snap.go's fields use.
// Deliberately finding-free.
package sim

type Time int64
