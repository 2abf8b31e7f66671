// Command mutants checks that the tests kill a catalogue of mutants:
// small deliberate bugs, each an exact text replacement in one source
// file. Each mutant is compiled in through `go test -overlay`, so no
// tree is copied and the working tree is never edited. A mutant
// survives when its test pattern still passes, which fails the run, as
// does an entry whose text does not occur exactly once or whose mutant
// does not build.
//
// Run it from the module root:
//
//	go run ./tools/mutants
//
// Each entry of the catalogue, tools/mutants/catalogue.json, names the
// file (relative to the module root), the exact old text, its
// replacement, the package to test and the -run pattern that must fail.
//
// Each distinct package and pattern first runs once on the unmutated
// tree. It must pass, or no mutant's failure would mean anything, and
// its time scales the -timeout of every entry that shares it: at least a
// minute, ten times the unmutated run when that is longer. A mutant that
// makes a guest spin is then killed by the timeout within about a
// minute.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

const catalogue = "tools/mutants/catalogue.json"

// mutant is one catalogue entry.
type mutant struct {
	Name string `json:"name"`
	File string `json:"file"`
	Old  string `json:"old"`
	New  string `json:"new"`
	Pkg  string `json:"pkg"`
	Run  string `json:"run"`
}

func main() {
	data, err := os.ReadFile(catalogue)
	if err != nil {
		fatal(err)
	}
	var mutants []mutant
	if err := json.Unmarshal(data, &mutants); err != nil {
		fatal(fmt.Errorf("%s: %w", catalogue, err))
	}
	tmp, err := os.MkdirTemp("", "mutants")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	timeouts := map[[2]string]time.Duration{}
	for _, m := range mutants {
		key := [2]string{m.Pkg, m.Run}
		if _, ok := timeouts[key]; ok {
			continue
		}
		start := time.Now()
		if out, err := exec.Command("go", "test", "-count=1", "-run", m.Run, m.Pkg).CombinedOutput(); err != nil {
			fatal(fmt.Errorf("unmutated %s fails -run %s:\n%s", m.Pkg, m.Run, out))
		}
		timeouts[key] = max(time.Minute, 10*time.Since(start)).Round(time.Second)
	}

	bad := 0
	for i, m := range mutants {
		killers, err := check(tmp, i, m, timeouts[[2]string{m.Pkg, m.Run}])
		if err != nil {
			bad++
			fmt.Printf("FAIL    %s: %v\n", m.Name, err)
			continue
		}
		fmt.Printf("killed  %s (%s)\n", m.Name, strings.Join(killers, ", "))
	}
	fmt.Printf("%d of %d mutants killed\n", len(mutants)-bad, len(mutants))
	if bad > 0 || len(mutants) == 0 {
		os.Exit(1)
	}
}

// check applies m through an overlay, runs its tests under timeout and
// returns the names of the tests that failed. It returns an error when
// the old text does not occur exactly once, when the mutant does not
// build, and when the tests pass (the mutant survived).
func check(tmp string, i int, m mutant, timeout time.Duration) ([]string, error) {
	src, err := os.ReadFile(m.File)
	if err != nil {
		return nil, err
	}
	if n := strings.Count(string(src), m.Old); n != 1 {
		return nil, fmt.Errorf("old text occurs %d times in %s, want once", n, m.File)
	}
	abs, err := filepath.Abs(m.File)
	if err != nil {
		return nil, err
	}
	mutated := filepath.Join(tmp, fmt.Sprintf("%d_%s", i, filepath.Base(m.File)))
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.Old, m.New, 1)), 0o644); err != nil {
		return nil, err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
	if err != nil {
		return nil, err
	}
	overlayFile := filepath.Join(tmp, fmt.Sprintf("%d.json", i))
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "test", "-count=1", "-timeout="+timeout.String(), "-overlay", overlayFile, "-run", m.Run, m.Pkg)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return nil, errors.New("survived: " + m.Run + " passes")
	case !errors.As(err, &exit):
		return nil, fmt.Errorf("go test: %w", err)
	case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
		return nil, fmt.Errorf("mutant does not build:\n%s", out)
	}
	var killers []string
	for _, line := range strings.Split(string(out), "\n") {
		if name, ok := strings.CutPrefix(line, "--- FAIL: "); ok {
			killers = append(killers, strings.Fields(name)[0])
		}
	}
	if len(killers) == 0 {
		killers = append(killers, "the test binary failed")
	}
	if strings.Contains(string(out), "panic: test timed out") {
		killers = append(killers, "timed out after "+timeout.String())
	}
	return killers, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mutants:", err)
	os.Exit(2)
}
