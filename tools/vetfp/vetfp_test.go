package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a throwaway module and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module testmod\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runChecks(t *testing.T, root string, pkgs ...string) []diagnostic {
	t.Helper()
	l := newLoader(root, "testmod")
	var diags []diagnostic
	for _, path := range pkgs {
		p, err := l.load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		diags = append(diags, checkPackage(l.fset, p)...)
	}
	return diags
}

func TestNilReceiverCheck(t *testing.T) {
	root := writeTree(t, map[string]string{
		"metrics/metrics.go": `package metrics

type SpyMetrics struct {
	Traps uint64
	tab   []uint64
}

// guarded: top-level nil guard before any deref.
func (m *SpyMetrics) Good() uint64 {
	if m == nil {
		return 0
	}
	return m.Traps
}

// guarded via ||-chain with the receiver leftmost.
func (m *SpyMetrics) GoodOr(on bool) uint64 {
	if m == nil || !on {
		return 0
	}
	return m.Traps
}

// containment: deref only inside an if m != nil block.
func (m *SpyMetrics) GoodContained() uint64 {
	var total uint64
	if m != nil {
		total = m.Traps
	}
	return total
}

// reading the pointer value itself is not a deref.
func (m *SpyMetrics) Enabled() bool { return m != nil }

// BadField derefs a field with no guard.
func (m *SpyMetrics) BadField() uint64 { return m.Traps }

// BadIndex indexes through the receiver before the guard.
func (m *SpyMetrics) BadIndex(i int) uint64 {
	v := m.tab[i]
	if m == nil {
		return 0
	}
	return v
}

// Unmonitored types are ignored even when unsafe.
type counter struct{ n uint64 }

func (c *counter) Bump() { c.n++ }
`,
	})
	diags := runChecks(t, root, "testmod/metrics")
	var got []string
	for _, d := range diags {
		if d.check != "nilreceiver" {
			t.Errorf("unexpected check %q: %s", d.check, d.msg)
		}
		got = append(got, d.msg)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 diagnostics, got %d: %v", len(got), got)
	}
	for i, want := range []string{"BadField", "BadIndex"} {
		if !strings.Contains(got[i], want) {
			t.Errorf("diagnostic %d = %q, want mention of %s", i, got[i], want)
		}
	}
}

func TestExhaustiveCheck(t *testing.T) {
	root := writeTree(t, map[string]string{
		"enums/enums.go": `package enums

type Reason string

const (
	ReasonA Reason = "a"
	ReasonB Reason = "b"
	ReasonC Reason = "c"
)
`,
		"use/use.go": `package use

import "testmod/enums"

func Full(r enums.Reason) int {
	switch r {
	case enums.ReasonA:
		return 1
	case enums.ReasonB, enums.ReasonC:
		return 2
	}
	return 0
}

func Defaulted(r enums.Reason) int {
	switch r {
	case enums.ReasonA:
		return 1
	default:
		return 0
	}
}

func Missing(r enums.Reason) int {
	switch r {
	case enums.ReasonA:
		return 1
	case enums.ReasonB:
		return 2
	}
	return 0
}

// Switches over other types are never flagged.
func Other(s string) int {
	switch s {
	case "x":
		return 1
	}
	return 0
}
`,
	})

	enumTypes["testmod/enums.Reason"] = true
	defer delete(enumTypes, "testmod/enums.Reason")

	diags := runChecks(t, root, "testmod/enums", "testmod/use")
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.check != "exhaustive" {
		t.Fatalf("check = %q, want exhaustive", d.check)
	}
	if !strings.Contains(d.msg, "ReasonC") || strings.Contains(d.msg, "ReasonB") {
		t.Errorf("diagnostic should name only ReasonC: %s", d.msg)
	}
}

func TestModulePath(t *testing.T) {
	root := writeTree(t, map[string]string{})
	mod, err := modulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	if mod != "testmod" {
		t.Fatalf("modulePath = %q, want testmod", mod)
	}
}

func TestMapRangeFloatCheck(t *testing.T) {
	root := writeTree(t, map[string]string{
		"sums/sums.go": `package sums

type agg struct{ sum float64 }

// Flagged: the total depends on map iteration order.
func Total(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// Flagged: products and quotients too, float32 included.
func Scale(m map[int]float32) (p, q float32) {
	p, q = 1, 1
	for k := range m {
		p *= m[k]
		q /= m[k]
	}
	return p, q
}

// Exempt: each key updates its own slot.
func PerKey(m map[string]float64, out map[string]float64, rows map[string]*agg) {
	for k, v := range m {
		out[k] += v
		rows[k].sum -= v
	}
}

// Not flagged: integer sums are exact in any order.
func Count(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Not flagged: a float sum over a slice has a fixed order.
func Slice(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Flagged once, by the inner range: the lvalue is indexed by the
// outer key but accumulates over the inner map's order.
func Nested(m map[string]map[string]float64, out map[string]float64) {
	for k, inner := range m {
		for _, v := range inner {
			out[k] += v
		}
	}
}
`,
	})
	diags := runChecks(t, root, "testmod/sums")
	var lines []int
	for _, d := range diags {
		if d.check != "maprangefloat" {
			t.Errorf("unexpected check %q: %s", d.check, d.msg)
		}
		lines = append(lines, d.pos.Line)
	}
	want := []int{9, 18, 19, 55}
	if len(lines) != len(want) {
		t.Fatalf("diagnostics at lines %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("diagnostics at lines %v, want %v", lines, want)
		}
	}
}

func TestPackageDirsSkipsNestedModules(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a.go":          "package a\n",
		"nested/go.mod":   "module nested\n\ngo 1.22\n",
		"nested/n.go":     "package nested\n",
		"nested/sub/s.go": "package sub\n",
	})
	dirs, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != filepath.Join(root, "a") {
		t.Fatalf("packageDirs = %v, want only %s", dirs, filepath.Join(root, "a"))
	}
}

func TestBigFloatCheck(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/shadow/eval.go": `package shadow

import "math/big"

func Wide() *big.Float { return new(big.Float) }
`,
		"internal/other/other.go": `package other

import (
	"fmt"
	"math/big"
)

func Show() string { return fmt.Sprint(new(big.Float)) }
`,
		"internal/other/other_test.go": `package other

import (
	"math/big"
	"testing"
)

func TestOracle(t *testing.T) { _ = new(big.Int) }
`,
		"internal/clean/clean.go": `package clean

import "math/bits"

func Len(x uint64) int { return bits.Len64(x) }
`,
	})
	diags := runChecks(t, root, "testmod/internal/shadow", "testmod/internal/other", "testmod/internal/clean")
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.check != "bigfloat" || filepath.Base(d.pos.Filename) != "other.go" || d.pos.Line != 5 {
		t.Errorf("diagnostic = %s:%d %s: %s, want bigfloat at other.go:5", d.pos.Filename, d.pos.Line, d.check, d.msg)
	}
}
