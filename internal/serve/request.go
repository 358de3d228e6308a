package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"hyperx"
)

// Request is the body of POST /v1/sweeps. The schema is hyperx.Experiment
// itself — the value cmd/hxsweep's flags parse into too — so the daemon
// and the CLI share one set of fields, defaults and validation rules, and
// a job's identity is Experiment.Key. Unknown fields anywhere in the body
// are rejected with a 400: a typoed field silently falling back to a
// default would silently change which experiment runs.
type Request = hyperx.Experiment

// parseRequest decodes, validates, and canonicalizes one submission.
// Every error it returns is a client error (HTTP 400).
func parseRequest(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	req := &Request{}
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("parsing request body: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("request body has trailing data after the JSON object")
	}
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	return req, nil
}

// jobID derives the compact job identifier from a canonical job key
// (Experiment.Key). Collisions are guarded at the registry, which
// compares full keys.
func jobID(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%016x", h.Sum64())
}
