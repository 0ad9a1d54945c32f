package histogram

import (
	"time"

	"spatialsel/internal/obs"
)

// Engine-level histogram counters, labeled by technique so GH, basic GH, and
// PH share one family each. Instruments are created once at init; Build and
// Estimate pay only atomic adds.
var (
	mBuilds = map[string]*obs.Counter{
		"gh":      obs.Default.Counter("histogram_builds_total", "Histogram summary builds by technique.", obs.L("technique", "gh")),
		"basicgh": obs.Default.Counter("histogram_builds_total", "Histogram summary builds by technique.", obs.L("technique", "basicgh")),
		"ph":      obs.Default.Counter("histogram_builds_total", "Histogram summary builds by technique.", obs.L("technique", "ph")),
	}
	mBuildSeconds = map[string]*obs.FloatCounter{
		"gh":      obs.Default.FloatCounter("histogram_build_seconds_total", "Cumulative histogram build time by technique.", obs.L("technique", "gh")),
		"basicgh": obs.Default.FloatCounter("histogram_build_seconds_total", "Cumulative histogram build time by technique.", obs.L("technique", "basicgh")),
		"ph":      obs.Default.FloatCounter("histogram_build_seconds_total", "Cumulative histogram build time by technique.", obs.L("technique", "ph")),
	}
	mEstimates = map[string]*obs.Counter{
		"gh":      obs.Default.Counter("histogram_estimates_total", "Histogram join estimates by technique.", obs.L("technique", "gh")),
		"basicgh": obs.Default.Counter("histogram_estimates_total", "Histogram join estimates by technique.", obs.L("technique", "basicgh")),
		"ph":      obs.Default.Counter("histogram_estimates_total", "Histogram join estimates by technique.", obs.L("technique", "ph")),
	}
)

// recordBuild flushes one Build call's accounting.
func recordBuild(technique string, start time.Time) {
	mBuilds[technique].Inc()
	mBuildSeconds[technique].Add(time.Since(start).Seconds())
}

// recordEstimate flushes one Estimate call's accounting.
func recordEstimate(technique string) { mEstimates[technique].Inc() }
