package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"text/tabwriter"
	"time"
)

// minPairs is how many parent/change pairs a comparison needs.
const minPairs = 10

// winShare is the share of pairs a change must win to claim a gain.
const winShare = 0.9

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// cmdCompare compares a parent commit's records with a change's, run in
// alternating pairs with the same settings, and exits non-zero on a
// regression or on any change in an exact count or digest.
func cmdCompare(args []string) (int, error) {
	if len(args) != 2 {
		usage()
	}
	d, err := loadDecl(declPath())
	if err != nil {
		return 0, err
	}
	parent, err := readRecords(args[0])
	if err != nil {
		return 0, err
	}
	change, err := readRecords(args[1])
	if err != nil {
		return 0, err
	}
	rep := compare(d, parent, change)
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\twins\tverdict")
	for _, row := range rep.rows {
		fmt.Fprintln(tw, row)
	}
	tw.Flush()
	for _, w := range rep.warnings {
		fmt.Println("warning:", w)
	}
	for _, f := range rep.failures {
		fmt.Println("FAIL:", f)
	}
	if len(rep.failures) > 0 {
		return 1, nil
	}
	return 0, nil
}

type comparison struct {
	rows     []string
	warnings []string
	failures []string
}

// compare applies the repository's rule for performance claims to each
// (workload, metric): medians and quartiles per side, pair wins, and a
// verdict. A gain needs winShare of the pairs and a median gap larger
// than the parent's interquartile range; a regression is a median worse
// by more than the metric's bound; a metric whose spread exceeds its
// bound is unresolved unless every change run beats every parent run.
func compare(d *decl, parent, change []record) comparison {
	var c comparison
	byWorkload := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	c.hostWarnings(parent, change)
	exact := exactMetrics()
	for _, w := range d.Workloads {
		ps, cs := pw[w.Name], cw[w.Name]
		if len(ps) == 0 || len(cs) == 0 {
			continue
		}
		n := min(len(ps), len(cs))
		if n < minPairs {
			c.warnings = append(c.warnings, fmt.Sprintf("%s: %d pairs, need at least %d", w.Name, n, minPairs))
		}
		if !alternating(ps[:n], cs[:n]) {
			c.warnings = append(c.warnings, fmt.Sprintf("%s: pairs do not alternate which side ran first", w.Name))
		}
		for _, r := range append(append([]record(nil), ps...), cs...) {
			if r.Digest != ps[0].Digest {
				c.failures = append(c.failures, fmt.Sprintf("%s: result digest changed (%s vs %s)", w.Name, ps[0].Digest, r.Digest))
				break
			}
		}
		for _, m := range append(append([]metricDecl(nil), d.EndToEnd...), d.PerLayer...) {
			pv, cv := values(ps[:n], m.Name), values(cs[:n], m.Name)
			if len(pv) < n || len(cv) < n {
				continue
			}
			if slices.Contains(exact, m.Name) {
				all := append(append([]float64(nil), pv...), cv...)
				for _, v := range all {
					if v != all[0] {
						c.failures = append(c.failures, fmt.Sprintf("%s: exact count %s changed", w.Name, m.Name))
						break
					}
				}
				continue
			}
			verdict, wins := judge(m, pv, cv)
			if verdict == "regression" {
				c.failures = append(c.failures, fmt.Sprintf("%s: %s regressed beyond its bound %g", w.Name, m.Name, m.Bound))
			}
			p1, p2, p3 := quartiles(pv)
			c1, c2, c3 := quartiles(cv)
			delta := "-"
			if p2 != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(c2-p2)/math.Abs(p2))
			}
			c.rows = append(c.rows, fmt.Sprintf("%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%d/%d\t%s",
				w.Name, m.Name, p2, p1, p3, c2, c1, c3, delta, wins, n, verdict))
		}
	}
	return c
}

// judge returns the verdict for one metric and how many pairs the
// change won.
func judge(m metricDecl, parent, change []float64) (string, int) {
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if m.Bound == 0 {
		return "-", wins // per-layer: reported, not judged
	}
	p1, p2, p3 := quartiles(parent)
	c1, c2, c3 := quartiles(change)
	spread := max((p3-p1)/math.Abs(p2), (c3-c1)/math.Abs(c2))
	dominates := slices.Max(change) < slices.Min(parent)
	worse := (c2 - p2) / math.Abs(p2)
	if m.Better == "higher" {
		dominates = slices.Min(change) > slices.Max(parent)
		worse = -worse
	}
	switch {
	case float64(wins) >= winShare*float64(len(parent)) && better(c2, p2) && math.Abs(c2-p2) > p3-p1:
		return "gain", wins
	case spread > m.Bound && !dominates:
		return "unresolved", wins
	case worse > m.Bound:
		return "regression", wins
	default:
		return "no regression", wins
	}
}

// values collects a metric from records that carry it.
func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// alternating reports whether consecutive pairs swap which side ran
// first.
func alternating(parent, change []record) bool {
	prev := 0
	for i := range parent {
		p, _ := time.Parse(time.RFC3339Nano, parent[i].Provenance.Started)
		c, _ := time.Parse(time.RFC3339Nano, change[i].Provenance.Started)
		first := 1
		if p.Before(c) {
			first = -1
		}
		if first == prev {
			return false
		}
		prev = first
	}
	return true
}

// hostWarnings flags records measured on different hosts or toolchains.
func (c *comparison) hostWarnings(parent, change []record) {
	type host struct {
		name, goVersion string
		nproc, procs    int
	}
	seen := map[host]bool{}
	for _, r := range append(append([]record(nil), parent...), change...) {
		p := r.Provenance
		seen[host{p.Host, p.GoVersion, p.NProc, p.GoMaxProcs}] = true
	}
	if len(seen) > 1 {
		c.warnings = append(c.warnings, fmt.Sprintf("records come from %d different hosts or toolchains", len(seen)))
	}
}
