package server

// FaultingJob exposes testJob, the tiny faulting clone, to the external
// tests.
var FaultingJob = testJob
