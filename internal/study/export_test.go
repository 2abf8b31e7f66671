package study

import fpspy "repro"

// RunProbeCellTrace exposes runProbeCell to the external tests, which
// check a cell's run and trace beyond its fingerprint verdict.
func RunProbeCellTrace(cell ProbeCell) (ProbeCellResult, *fpspy.Result, []fpspy.Record) {
	return runProbeCell(cell, nil)
}
