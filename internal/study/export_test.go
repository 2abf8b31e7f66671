package study

// RunProbeCellTrace exposes runProbeCell to the external tests, which
// check a cell's run and trace beyond its fingerprint verdict.
var RunProbeCellTrace = runProbeCell
