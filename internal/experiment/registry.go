package experiment

import "xbarsec/internal/experiment/engine"

// Every experiment in this package registers itself in the engine's
// name→spec registry at init time. Three layers dispatch through the
// registry instead of hard-coding runner lists: cmd/xbarattack maps CLI
// commands onto it, internal/service turns any entry into a cached
// server-side job, and the xbarserve /experiments endpoint lists,
// launches and polls entries over HTTP.
//
// Figure 5 registers the default-grid variant; callers needing custom
// query/λ grids use RunFig5 with Fig5Options directly.
func init() {
	engine.Register(table1Grid.Experiment())
	engine.Register(fig3Grid.Experiment())
	engine.Register(fig4Grid.Experiment())
	engine.Register(engine.Experiment{
		Name:  "fig5",
		Title: "Figure 5 surrogate black-box attack sweeps",
		Run: func(opts engine.Options) (engine.Result, error) {
			return RunFig5(Fig5Options{Options: opts})
		},
		Axes: func(opts engine.Options) []engine.Axis {
			return fig5GridFor(Fig5Options{Options: opts}).Experiment().Axes(opts)
		},
		// 1: the surrogate's power gradient is summed in factored order.
		ResultsVersion: 1,
	})
	engine.Register(noiseGrid.Experiment())
	engine.Register(searchGrid.Experiment())
	engine.Register(multiPixelGrid.Experiment())
	engine.Register(depthGrid.Experiment())
	engine.Register(maskingGrid.Experiment())
	engine.Register(traceGrid.Experiment())
	engine.Register(calibrateGrid.Experiment())
}

// AblationNames lists the ablation/extension experiments in the order
// the CLI's "ablations" command (and the paper appendix) presents them.
func AblationNames() []string {
	return []string{
		"ablate-noise", "ablate-search", "ablate-multipixel",
		"ablate-depth", "ablate-masking", "ablate-trace",
	}
}

// PaperOrder lists the registry names in the order the CLI's "all"
// command runs them (paper order; excludes the service-layer campaign
// demo, which is not a registry experiment).
func PaperOrder() []string {
	return append([]string{"calibrate", "table1", "fig3", "fig4", "fig5"}, AblationNames()...)
}
