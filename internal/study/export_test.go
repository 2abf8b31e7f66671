package study

import fpspy "repro"

// RunProbeCellTrace exposes runProbeCell to the external tests, which
// check a cell's run beyond its fingerprint verdict.
func RunProbeCellTrace(cell ProbeCell) (ProbeCellResult, *fpspy.Result) {
	return runProbeCell(cell, nil)
}
