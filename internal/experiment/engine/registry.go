package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Experiment is one type-erased registry entry: a name, a description,
// and a runner producing the uniform Result. Three layers dispatch
// through it — cmd/xbarattack (CLI), internal/service (server-side
// jobs), and the xbarserve /experiments HTTP endpoint.
type Experiment struct {
	// Name is the registry key and CLI command.
	Name string
	// Title is a one-line human description.
	Title string
	// Run executes the experiment.
	Run func(opts Options) (Result, error)
	// Axes describes the grid's dimensions at the given options
	// (optional; may return nil).
	Axes func(opts Options) []Axis
	// ResultsVersion is bumped by hand whenever a code change moves the
	// experiment's full-precision result, even where every rendered
	// golden stays byte-identical. Cached and spilled artifacts are
	// keyed by it, so a server never serves what an older version
	// computed. 0 is the unversioned original.
	ResultsVersion int
}

var (
	regMu    sync.RWMutex
	registry = map[string]Experiment{}
)

// Register adds an experiment to the global registry. It panics on a
// duplicate or empty name — registration is init-time wiring, so a
// collision is a programming error, not a runtime condition.
func Register(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("engine: Register needs a name and a runner")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[e.Name]; ok {
		panic(fmt.Sprintf("engine: experiment %q registered twice", e.Name))
	}
	registry[e.Name] = e
}

// Lookup returns the registered experiment with the given name.
func Lookup(name string) (Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Names lists registered experiment names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every registered experiment, sorted by name.
func All() []Experiment {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON is the shared WriteJSON body for result types: indented
// JSON with a trailing newline.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
