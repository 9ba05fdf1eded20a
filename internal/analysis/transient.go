package analysis

import (
	"math"
	"sort"

	"repro/internal/asn"
	"repro/internal/origin"
	"repro/internal/stats"
)

// ASLossSpread is one AS's row for Figure 9 / Table 3: the spread of
// per-origin transient loss rates.
type ASLossSpread struct {
	AS     asn.ASN
	ASName string
	Hosts  int // live hosts in the AS (union over trials)
	// Rate[o] is the origin's transient loss rate in the AS: transient
	// hosts / live hosts.
	Rate map[origin.ID]float64
	// Delta is the max pairwise difference (percentage points / 100).
	Delta float64
	// Diff is the host-count difference between the worst and best
	// origin (Table 3's "Diff" column).
	Diff int
	// Ratio is worst/best (Table 3's "Ratio"; +Inf collapses to a large
	// number when the best origin lost zero hosts).
	Ratio float64
}

// groupByAS buckets the union spine's indices by destination AS. Index
// lists inherit the spine's sorted order, so per-AS walks stay in address
// order and class lookups are direct array reads (OfAt).
func groupByAS(c *Classifier, topo Topology) map[asn.ASN][]int {
	asHosts := map[asn.ASN][]int{}
	for i, a := range c.Union() {
		if n, ok := topo.ASOf(a); ok {
			asHosts[n] = append(asHosts[n], i)
		}
	}
	return asHosts
}

// TransientLossSpread computes, for every AS with at least minHosts live
// hosts, the per-origin transient loss rates and their spread, ordered by
// Diff (descending), ties by AS number.
func TransientLossSpread(c *Classifier, topo Topology, minHosts int) []ASLossSpread {
	if minHosts < 1 {
		minHosts = 2
	}
	asHosts := groupByAS(c, topo)
	var out []ASLossSpread
	for as, hosts := range asHosts {
		if len(hosts) < minHosts {
			continue
		}
		row := ASLossSpread{
			AS: as, ASName: topo.ASName(as), Hosts: len(hosts),
			Rate: map[origin.ID]float64{},
		}
		minRate, maxRate := math.Inf(1), math.Inf(-1)
		var minN, maxN int
		for _, o := range c.DS.Origins {
			n := 0
			for _, i := range hosts {
				if c.OfAt(o, i) == ClassTransient {
					n++
				}
			}
			r := float64(n) / float64(len(hosts))
			row.Rate[o] = r
			if r < minRate {
				minRate, minN = r, n
			}
			if r > maxRate {
				maxRate, maxN = r, n
			}
		}
		row.Delta = maxRate - minRate
		row.Diff = maxN - minN
		if minN > 0 {
			row.Ratio = float64(maxN) / float64(minN)
		} else if maxN > 0 {
			row.Ratio = float64(maxN) // paper-style huge ratios for zero baselines
		} else {
			row.Ratio = 1
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Diff != out[j].Diff {
			return out[i].Diff > out[j].Diff
		}
		return out[i].AS < out[j].AS
	})
	return out
}

// SpreadCDF converts the spreads into Figure 9's two CDFs: plain (one point
// per AS) and weighted by AS size (the dashed line).
func SpreadCDF(spreads []ASLossSpread) (plain, weighted []stats.CDFPoint) {
	xs := make([]float64, len(spreads))
	ws := make([]float64, len(spreads))
	for i, s := range spreads {
		xs[i] = s.Delta
		ws[i] = float64(s.Hosts)
	}
	return stats.CDF(xs, nil), stats.CDF(xs, ws)
}

// StabilityReport is Figure 11 plus §5.1's flip statistic.
type StabilityReport struct {
	// ASesConsidered is the number of ASes with enough hosts analyzed.
	ASesConsidered int
	// ConsistentBest[o] counts ASes where o had strictly the best
	// coverage in every trial; ConsistentWorst likewise.
	ConsistentBest  map[origin.ID]int
	ConsistentWorst map[origin.ID]int
	// Flips counts ASes where some origin was strictly best in one
	// trial and strictly worst in another (§5.1: ~23% of ASes).
	Flips int
}

// BestWorstStability ranks origins per destination AS per trial by the
// number of live hosts they saw and measures rank stability across trials.
func BestWorstStability(c *Classifier, topo Topology, minHosts int) StabilityReport {
	if minHosts < 1 {
		minHosts = 5
	}
	rep := StabilityReport{
		ConsistentBest:  map[origin.ID]int{},
		ConsistentWorst: map[origin.ID]int{},
	}
	asHosts := groupByAS(c, topo)
	origins := c.DS.Origins
	for _, hosts := range asHosts {
		if len(hosts) < minHosts {
			continue
		}
		rep.ASesConsidered++
		// Per trial, compute each origin's host count and the
		// (possibly tied) best/worst sets. Consistency requires a
		// strict, untied winner in every trial; a flip happens when
		// an origin is among the best in one trial and among the
		// worst in another, with a real spread in both trials
		// (§5.1's "the worst scanning origin in one trial will
		// become the best scanning origin in another").
		bests := make([]origin.ID, 0, c.DS.Trials)
		worsts := make([]origin.ID, 0, c.DS.Trials)
		wasBest := map[origin.ID]bool{}
		wasWorst := map[origin.ID]bool{}
		for t := 0; t < c.DS.Trials; t++ {
			counts := map[origin.ID]int{}
			bestN, worstN := -1, math.MaxInt
			for _, o := range origins {
				s := c.DS.Scan(o, c.Proto, t)
				if s == nil {
					continue
				}
				n := 0
				union := c.Union()
				for _, i := range hosts {
					if c.PresentAt(i, t) && s.Success(union[i], false) {
						n++
					}
				}
				counts[o] = n
				if n > bestN {
					bestN = n
				}
				if n < worstN {
					worstN = n
				}
			}
			if bestN == worstN {
				continue // no spread this trial
			}
			var bestSet, worstSet origin.Set
			for o, n := range counts {
				if n == bestN {
					bestSet = append(bestSet, o)
				}
				if n == worstN {
					worstSet = append(worstSet, o)
				}
			}
			// Consistency uses strict (untied) winners: a tied "best"
			// origin says nothing about a stable ranking.
			if len(bestSet) == 1 {
				bests = append(bests, bestSet[0])
			}
			if len(worstSet) == 1 {
				worsts = append(worsts, worstSet[0])
			}
			// Flips tolerate ties but require a non-trivial spread
			// (≥2 hosts between best and worst), so a single lost
			// host cannot manufacture a best→worst reversal.
			if bestN-worstN >= 2 {
				for _, o := range bestSet {
					wasBest[o] = true
				}
				for _, o := range worstSet {
					wasWorst[o] = true
				}
			}
		}
		if len(bests) == c.DS.Trials && allSame(bests) {
			rep.ConsistentBest[bests[0]]++
		}
		if len(worsts) == c.DS.Trials && allSame(worsts) {
			rep.ConsistentWorst[worsts[0]]++
		}
		for o := range wasBest {
			if wasWorst[o] {
				rep.Flips++
				break
			}
		}
	}
	return rep
}

func allSame(os []origin.ID) bool {
	for _, o := range os[1:] {
		if o != os[0] {
			return false
		}
	}
	return true
}
