// Package detclock forbids wall-clock reads and nondeterministic
// randomness in the packages whose results are measured in the
// simulator's virtual clock (internal/mpisim, internal/dist,
// internal/faultsim, and the compute kernels in internal/kernels). GESP's scaling tables are reported in simulated
// seconds, which must be deterministic and machine-independent: a
// time.Now or a globally-seeded math/rand call anywhere in those
// engines silently turns a reproducible measurement into a flaky one.
//
// Functions that intentionally measure host wall time (never feeding
// the virtual clock) opt out with a //gesp:wallclock doc directive.
// Explicitly seeded generators (rand.New(rand.NewSource(k))) are
// allowed; only the package-level, randomly-seeded source is flagged.
package detclock

import (
	"go/ast"
	"go/types"
	"strings"

	"gesp/internal/analysis"
)

// Analyzer is the detclock check.
var Analyzer = &analysis.Analyzer{
	Name: "detclock",
	Doc: "forbid wall-clock reads and unseeded math/rand in the deterministic " +
		"simulation packages (mpisim, dist, faultsim, kernels); opt out with //gesp:wallclock",
	Run: run,
}

// scopedPackages are the import-path segments naming the deterministic
// engines. Matching on the final segment keeps the analyzer applicable
// to both the real packages (gesp/internal/mpisim) and test fixtures.
var scopedPackages = map[string]bool{
	"mpisim": true, "dist": true, "faultsim": true, "kernels": true,
}

// wallFuncs are the time-package functions that read or schedule
// against the host clock. Timer constructors (After, AfterFunc, Tick,
// NewTimer, NewTicker) and Sleep are included: a watchdog or
// checkpoint interval built on host timers would make failure
// detection depend on machine speed, where the simulator's wedge
// detection must fire at a deterministic virtual time. Wall-clock
// backstops that only guard against simulator bugs opt out with
// //gesp:wallclock.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "Sleep": true,
}

// seededCtors are the math/rand package-level functions that do not
// touch the global generator and are therefore deterministic when given
// a fixed seed.
var seededCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func applies(pkgPath string) bool {
	segs := strings.Split(pkgPath, "/")
	return scopedPackages[segs[len(segs)-1]]
}

func run(pass *analysis.Pass) error {
	if !applies(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		dirs := analysis.FileDirectives(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			fn, isFunc := obj.(*types.Func)
			if !isFunc || fn.Type().(*types.Signature).Recv() != nil {
				return true // methods (e.g. on a seeded *rand.Rand) are fine
			}
			exempt := func() bool {
				return dirs.At(sel.Pos(), "wallclock") ||
					analysis.EnclosingFuncHasDirective(f, sel.Pos(), "wallclock")
			}
			switch obj.Pkg().Path() {
			case "time":
				if wallFuncs[obj.Name()] && !exempt() {
					pass.Reportf(sel.Pos(),
						"time.%s depends on the host wall clock inside a deterministic simulation package; "+
							"use the rank's virtual clock, or annotate the function //gesp:wallclock "+
							"if this is an intentional real-time measurement or backstop", obj.Name())
				}
			case "math/rand", "math/rand/v2":
				if !seededCtors[obj.Name()] && !exempt() {
					pass.Reportf(sel.Pos(),
						"rand.%s uses the globally-seeded generator, which is nondeterministic; "+
							"use rand.New(rand.NewSource(seed)) so simulated results are reproducible",
						obj.Name())
				}
			}
			return true
		})
	}
	return nil
}
