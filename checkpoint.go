package hyperx

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
)

// checkpointVersion is the on-disk checkpoint format version. Bump it
// whenever the file schema, a payload type, or the key scheme changes in a
// way that would let an old file satisfy a new request incorrectly; old
// versions are rejected with an explicit error, never silently reread.
// The format and compatibility rules are documented in docs/STATE.md.
const checkpointVersion = 1

// checkpointFile is the envelope around every persisted result: a format
// version, the full canonical key (so a filename hash collision can never
// serve the wrong experiment), and a CRC over the payload bytes (so a
// truncated or corrupted write is detected rather than parsed).
type checkpointFile struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

// CheckpointStore persists completed sweep results in a directory, one
// file per (configuration, pattern, algorithm, load, methodology) key, so
// a killed sweep rerun with the same flags resumes from what it already
// computed and produces byte-identical output. Saves are atomic
// (write-to-temp + rename); concurrent workers never observe torn files.
type CheckpointStore struct {
	dir string

	// Access counters for the cache-stats surface of the sweep service:
	// hits and misses count Load outcomes (a filename collision with a
	// different key is a miss), saves counts successful Save calls. They
	// are atomics because the harness pool and concurrent service jobs
	// share one store.
	hits   atomic.Uint64
	misses atomic.Uint64
	saves  atomic.Uint64
}

// OpenCheckpointDir opens (creating if needed) a checkpoint directory.
func OpenCheckpointDir(dir string) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("hyperx: checkpoint dir: %w", err)
	}
	return &CheckpointStore{dir: dir}, nil
}

// Dir returns the store's directory path (for provenance records).
func (s *CheckpointStore) Dir() string { return s.dir }

func (s *CheckpointStore) path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(s.dir, fmt.Sprintf("%016x.ckpt.json", h.Sum64()))
}

// Load reads the result stored under key into into. It returns (false,
// nil) on a clean miss — no file, or a filename collision with a
// different key — and an explicit error on a corrupt, truncated, or
// version-incompatible file: a damaged checkpoint must surface, not
// silently recompute, so the operator decides whether to delete it.
func (s *CheckpointStore) Load(key string, into any) (bool, error) {
	path := s.path(key)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		s.misses.Add(1)
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("hyperx: checkpoint %s: %w", path, err)
	}
	var f checkpointFile
	if err := json.Unmarshal(b, &f); err != nil {
		return false, fmt.Errorf("hyperx: checkpoint %s is corrupt or truncated (%v); delete it to recompute", path, err)
	}
	if f.Version != checkpointVersion {
		return false, fmt.Errorf("hyperx: checkpoint %s has format version %d, this build reads version %d; delete the checkpoint directory to recompute", path, f.Version, checkpointVersion)
	}
	if f.Key != key {
		s.misses.Add(1)
		return false, nil // hash collision with a different experiment
	}
	if crc := crc32.ChecksumIEEE(f.Payload); crc != f.CRC {
		return false, fmt.Errorf("hyperx: checkpoint %s failed its payload checksum (have %08x, want %08x): corrupt or truncated write; delete it to recompute", path, crc, f.CRC)
	}
	if err := json.Unmarshal(f.Payload, into); err != nil {
		return false, fmt.Errorf("hyperx: checkpoint %s payload does not parse (%v); delete it to recompute", path, err)
	}
	s.hits.Add(1)
	return true, nil
}

// Save persists v under key, atomically replacing any previous value.
func (s *CheckpointStore) Save(key string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("hyperx: checkpoint save: %w", err)
	}
	b, err := json.Marshal(checkpointFile{
		Version: checkpointVersion,
		Key:     key,
		CRC:     crc32.ChecksumIEEE(payload),
		Payload: payload,
	})
	if err != nil {
		return fmt.Errorf("hyperx: checkpoint save: %w", err)
	}
	path := s.path(key)
	tmp := fmt.Sprintf("%s.tmp.%d", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("hyperx: checkpoint save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("hyperx: checkpoint save: %w", err)
	}
	s.saves.Add(1)
	return nil
}

// CacheStats describes a checkpoint store for the service's
// /v1/cache/stats endpoint: the on-disk footprint plus this process's
// access counters (which start at zero per store instance; entries and
// bytes survive restarts, the counters do not).
type CacheStats struct {
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Saves   uint64 `json:"saves"`
}

// Stats walks the store directory and returns its current footprint and
// access counters. The walk ignores non-checkpoint files (temp files of
// in-flight saves, stray editor droppings).
func (s *CheckpointStore) Stats() (CacheStats, error) {
	st := CacheStats{
		Dir:    s.dir,
		Hits:   s.hits.Load(),
		Misses: s.misses.Load(),
		Saves:  s.saves.Load(),
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return st, fmt.Errorf("hyperx: checkpoint stats: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt.json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // deleted between readdir and stat: not an error
		}
		st.Entries++
		st.Bytes += info.Size()
	}
	return st, nil
}

// pointRecord is the persisted payload of one completed load point.
type pointRecord struct {
	Point LoadPoint `json:"point"`
	Stats simStats  `json:"stats"`
}

// curveRecord is the persisted payload of one completed warm-fork curve.
type curveRecord struct {
	Points []LoadPoint `json:"points"`
	Stats  simStats    `json:"stats"`
}

// thptRecord is the persisted payload of one completed saturated-throughput
// grid cell.
type thptRecord struct {
	Value float64  `json:"value"`
	Stats simStats `json:"stats"`
}

// hexFloat renders a float for a checkpoint key: the 'x' format is exact
// (every distinct float64 has a distinct rendering), so two loads that
// differ in any bit never share a key.
func hexFloat(v float64) string {
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// configKey canonicalizes every Config field that influences simulation
// results. Adding a result-affecting Config field without extending this
// key is a checkpoint-correctness bug — see docs/STATE.md.
func configKey(cfg Config) string {
	w := make([]string, len(cfg.Widths))
	for i, x := range cfg.Widths {
		w[i] = strconv.Itoa(x)
	}
	return fmt.Sprintf("w=%s;t=%d;alg=%s;vcs=%d;buf=%d;maxpkt=%d;xbar=%d;chan=%d;term=%d;omni=%d;nob2b=%v;atomic=%v;sense=%v;arb=%s;faults=%d;fseed=%d;seed=%d",
		strings.Join(w, "x"), cfg.Terms, cfg.Algorithm, cfg.NumVCs, cfg.BufDepth,
		cfg.MaxPktFlits, cfg.XbarLat, cfg.RouterChanLat, cfg.TermChanLat,
		cfg.OmniClasses, cfg.OmniNoB2B, cfg.AtomicVCAlloc, cfg.ClassSense,
		cfg.Arbiter, cfg.Faults, cfg.FaultSeed, cfg.Seed)
}

// optsKey canonicalizes the RunOpts fields that influence results (callers
// pass defaulted opts). RunOpts.Shards is deliberately absent: the
// sharded executor's event sequence is bit-identical to serial at every
// shard count (see internal/shard), so results never depend on it and a
// cache written at one setting must serve runs at every other.
func optsKey(opts RunOpts) string {
	return fmt.Sprintf("warm=%d;win=%d;drain=%d;latcap=%s;minf=%d;maxf=%d",
		opts.Warmup, opts.Window, opts.DrainCap, hexFloat(opts.LatencyCap),
		opts.MinFlits, opts.MaxFlits)
}

// pointKey identifies one cold-path load point result.
func pointKey(cfg Config, pattern string, load float64, opts RunOpts) string {
	return fmt.Sprintf("point|v%d|%s|pat=%s|load=%s|%s",
		checkpointVersion, configKey(cfg), pattern, hexFloat(load), optsKey(opts))
}

// thptKey identifies one saturated-throughput grid cell. Offered load is
// always 1.0 on this path, so it is not part of the key.
func thptKey(cfg Config, pattern string, opts RunOpts) string {
	return fmt.Sprintf("thpt|v%d|%s|pat=%s|%s",
		checkpointVersion, configKey(cfg), pattern, optsKey(opts))
}

// curveKey identifies one warm-fork curve result (the whole load grid and
// the fork methodology are part of the identity).
func curveKey(cfg Config, pattern string, loads []float64, opts RunOpts, fk ForkOpts) string {
	ls := make([]string, len(loads))
	for i, l := range loads {
		ls[i] = hexFloat(l)
	}
	return fmt.Sprintf("curve|v%d|%s|pat=%s|loads=%s|%s|fork=%d,%s,%d",
		checkpointVersion, configKey(cfg), pattern, strings.Join(ls, ","),
		optsKey(opts), fk.WarmCycles, hexFloat(fk.WarmLoad), fk.Settle)
}

// PointKey returns the canonical content address of one cold-path load
// point result — the key the checkpoint store files it under and the
// sweep service deduplicates in-flight computations on. Config and
// RunOpts are canonicalized (defaults applied) first, so callers need
// not pre-default; the exact string format is pinned by the
// key-stability test against testdata/checkpoint_keys.txt, and the
// intentional-change procedure is documented in docs/STATE.md.
func PointKey(cfg Config, pattern string, load float64, opts RunOpts) string {
	return pointKey(cfg.withDefaults(), pattern, load, opts.withDefaults())
}

// ThptKey returns the canonical content address of one saturated-
// throughput grid cell (offered load is always 1.0 on that path). See
// PointKey for the canonicalization and stability contract.
func ThptKey(cfg Config, pattern string, opts RunOpts) string {
	return thptKey(cfg.withDefaults(), pattern, opts.withDefaults())
}

// CurveKey returns the canonical content address of one whole-curve
// result under the fork methodology fk, defaulted exactly as the forked
// sweep defaults it (so the zero ForkOpts addresses the pristine fork,
// whose results are byte-identical to the cold path). See PointKey for
// the canonicalization and stability contract.
func CurveKey(cfg Config, pattern string, loads []float64, opts RunOpts, fk ForkOpts) string {
	o := opts.withDefaults()
	return curveKey(cfg.withDefaults(), pattern, loads, o, fk.withDefaults(o))
}
