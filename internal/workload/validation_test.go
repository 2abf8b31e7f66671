package workload_test

import (
	"testing"

	fpspy "repro"
	"repro/internal/workload"
)

// TestValidationMatrix reproduces the paper's Section 5 validation: test
// programs that produce every event, in every execution model, traced
// correctly in both modes.
func TestValidationMatrix(t *testing.T) {
	all := fpspy.FlagInvalid | fpspy.FlagDenormal | fpspy.FlagDivideByZero |
		fpspy.FlagOverflow | fpspy.FlagUnderflow | fpspy.FlagInexact
	models := []struct {
		name    string
		model   workload.ValidationModel
		threads int // traced threads expected (individual mode)
	}{
		{"single", workload.ModelSingle, 1},
		{"threads", workload.ModelThreads, 3},
		{"processes", workload.ModelProcesses, 2},
		{"processes+threads", workload.ModelProcessesThreads, 4},
		{"with-signals", workload.ModelWithSignals, 3},
	}
	for _, m := range models {
		m := m
		t.Run(m.name+"/aggregate", func(t *testing.T) {
			res, err := fpspy.Run(workload.BuildValidation(m.model), fpspy.Options{
				Config: fpspy.Config{Mode: fpspy.ModeAggregate},
			})
			if err != nil {
				t.Fatal(err)
			}
			var union fpspy.Flags
			for _, a := range res.Aggregates() {
				union |= a.Flags
			}
			if union != all {
				t.Errorf("aggregate union = %v, want all events", union)
			}
			if len(res.Aggregates()) < m.threads {
				t.Errorf("aggregate records = %d, want >= %d", len(res.Aggregates()), m.threads)
			}
		})
		t.Run(m.name+"/individual", func(t *testing.T) {
			res, err := fpspy.Run(workload.BuildValidation(m.model), fpspy.Options{
				Config: fpspy.Config{Mode: fpspy.ModeIndividual},
			})
			if err != nil {
				t.Fatal(err)
			}
			var union fpspy.Flags
			for _, rec := range res.Store.AllRecords() {
				union |= rec.Raised
			}
			if union != all {
				t.Errorf("individual union = %v, want all events", union)
			}
			if got := len(res.Store.Threads()); got != m.threads {
				t.Errorf("traced threads = %d, want %d", got, m.threads)
			}
			if res.Store.StepAsides != 0 {
				t.Errorf("step-asides = %d", res.Store.StepAsides)
			}
		})
	}
}
