package obs

import (
	"expvar"
	"sort"
	"sync"
)

// This file bridges snapshots to the standard library's expvar
// registry (/debug/vars). expvar.Publish panics on duplicate names, so the
// bridge keeps its own registry and republishes a single Func per name —
// re-registering a name replaces its callback instead of panicking, which
// tests and restart paths need.

var (
	expvarMu    sync.Mutex
	expvarFuncs = map[string]func() any{}
)

// PublishExpvar exposes f's result under name in the process-wide expvar
// registry (rendered by /debug/vars). Re-publishing an existing name
// replaces the callback.
func PublishExpvar(name string, f func() any) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if _, ok := expvarFuncs[name]; !ok {
		expvar.Publish(name, expvar.Func(func() any {
			expvarMu.Lock()
			g := expvarFuncs[name]
			expvarMu.Unlock()
			if g == nil {
				return nil
			}
			return g()
		}))
	}
	expvarFuncs[name] = f
}

// ExpvarNames returns the names published through PublishExpvar, sorted.
func ExpvarNames() []string {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	names := make([]string, 0, len(expvarFuncs))
	for n := range expvarFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
