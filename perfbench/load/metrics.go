package main

// shape names a workload's request classes and how its end-to-end metrics
// are estimated.
type shape struct {
	all, main, side []string // every timed request; the main kind; the side kind
	tail            float64  // the tail percentile reported for main requests
	// setups is how many times a run starts xicd and sets it up; setup_s
	// is their median, and the last server serves the timed phase. A
	// cheap setup is repeated more, so that its median is as steady.
	setups int
}

// endToEnd computes the metrics every workload reports, except setup_s
// and peak_rss_mb, over the whole timed phase of secs seconds.
func endToEnd(rec *recorder, secs float64, sh shape) map[string]float64 {
	all, main, side := rec.samples(sh.all...), rec.samples(sh.main...), rec.samples(sh.side...)
	bytes := 0
	for _, s := range all {
		bytes += s.bytes
	}
	return map[string]float64{
		"ops_s":       float64(len(all)) / secs,
		"mb_s":        float64(bytes) / 1e6 / secs,
		"p50_ms":      latencyQ(main, 0.5),
		"tail_ms":     latencyQ(main, sh.tail),
		"side_p50_ms": latencyQ(side, 0.5),
		"side_p90_ms": latencyQ(side, 0.9),
	}
}

// latencyQ is the q-quantile of the samples' latencies, in ms.
func latencyQ(ss []sample, q float64) float64 {
	ms := make([]float64, len(ss))
	for i, s := range ss {
		ms[i] = s.ms
	}
	return quantile(ms, q)
}
