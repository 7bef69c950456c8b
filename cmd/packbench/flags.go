package main

import (
	"flag"
	"fmt"

	"packunpack/internal/transport"
)

// backendOnlyFlags maps every packbench flag that applies to one
// backend only to that backend and the reason it cannot apply to the
// other. The sim-only flags drive the virtual-time sweep, which
// -backend real replaces with the fixed realworld measured-speedup
// family; the real-only flag gates that family. Setting one under the
// other backend is a hard error rather than a silent no-op: a user who
// asked for fault injection or a speedup gate must not get a
// clean-looking run that quietly did neither.
var backendOnlyFlags = map[string]struct {
	backend transport.Backend
	why     string
}{
	"faults":     {transport.BackendSim, "fault injection is a modelling device of the emulator's omniscient network"},
	"trace-dir":  {transport.BackendSim, "per-point trace dumps cover the virtual-time experiment grid; use packtrace -backend real for a wall-clock trace"},
	"plan-gate":  {transport.BackendSim, "the plan-cache amortization measurement runs on the virtual-time sweep"},
	"flight-dir": {transport.BackendSim, "the sweep flight recorder covers the virtual-time experiment grid; use packtrace -backend real -flight-dir for one real run"},
	"exp":        {transport.BackendSim, "the real backend runs the fixed realworld experiment family"},
	"service":    {transport.BackendSim, "the serving-layer soak's latency model runs in virtual time on the emulator; use packserve -backend real for a wall-clock serving run"},
	"real-gate":  {transport.BackendReal, "the speedup gate measures the realworld family on the shared-memory backend"},
}

// setFlagNames returns the names of the flags explicitly set on the
// command line, in flag.Visit (lexical) order.
func setFlagNames(fs *flag.FlagSet) []string {
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	return set
}

// checkBackendFlags rejects explicitly set flags that belong to the
// other backend. set is the list of flag names the user passed.
func checkBackendFlags(backend transport.Backend, set []string) error {
	for _, name := range set {
		if only, ok := backendOnlyFlags[name]; ok && only.backend != backend {
			return fmt.Errorf("-%s is %v-only: %s (drop the flag or use -backend %v)", name, only.backend, only.why, only.backend)
		}
	}
	return nil
}
