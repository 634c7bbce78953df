package obs

import "runtime"

// RegisterRuntimeMetrics adds the process-health gauges every hyper role
// exposes (coordinator, worker): goroutine count, live heap bytes, and a
// constant build-info series carrying the Go version as a label. Gauges read
// at scrape time; ReadMemStats is cheap at scrape cadence.
func RegisterRuntimeMetrics(reg *Registry) {
	reg.GaugeFunc("hyper_go_goroutines", "Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("hyper_go_heap_bytes", "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	// Every series of the info family is the constant 1.
	registerVec(reg, "hyper_build_info", "Constant 1; labels carry build metadata.", "gauge",
		[]string{"go_version"}, func() float64 { return 1 }, writeSample).With(runtime.Version())
}
