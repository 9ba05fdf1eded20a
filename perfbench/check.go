package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strconv"

	"repro/internal/experiment"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/world"
)

// scanKey names one (origin, protocol, trial) scan of a study.
type scanKey struct {
	o     origin.ID
	p     proto.Protocol
	trial int
}

// studyOrigins is the dataset's origin set: the configured origins plus
// Carinet when the study includes it (trial 0 only).
func studyOrigins(cfg experiment.Config) origin.Set {
	if cfg.IncludeCarinet && !cfg.Origins.Contains(origin.CARINET) {
		return append(append(origin.Set{}, cfg.Origins...), origin.CARINET)
	}
	return cfg.Origins
}

// scanKeys lists a study's scans in canonical order — trial-major, then
// protocol, then origin — the order a serial study commits in. cfg must
// carry experiment defaults (Study.Config does).
func scanKeys(cfg experiment.Config) []scanKey {
	var keys []scanKey
	for trial := 0; trial < cfg.Trials; trial++ {
		for _, p := range cfg.Protocols {
			for _, o := range studyOrigins(cfg) {
				if o == origin.CARINET && trial != 0 {
					continue
				}
				keys = append(keys, scanKey{o, p, trial})
			}
		}
	}
	return keys
}

// checkDataset verifies the sealed dataset's invariants and returns one
// error per scan that is missing or violates them:
//   - every scan of the study is present and sealed;
//   - Targets equals the sweep space or the hitlist length;
//   - ProbesSent equals Targets × Probes;
//   - L7 hosts ≤ L4 hosts ≤ world hosts.
func checkDataset(ds *results.Dataset, cfg experiment.Config, w *world.World) []error {
	if ds == nil {
		return []error{fmt.Errorf("no dataset")}
	}
	wantTargets := w.SpaceSize()
	if w.Family == world.FamilyIPv6 {
		wantTargets = uint64(len(w.Hitlist()))
	}
	var errs []error
	keys := scanKeys(cfg)
	if ds.Len() != len(keys) {
		errs = append(errs, fmt.Errorf("dataset holds %d scans, want %d", ds.Len(), len(keys)))
	}
	for _, k := range keys {
		s := ds.Scan(k.o, k.p, k.trial)
		if s == nil {
			errs = append(errs, fmt.Errorf("%v/%v/trial %d: scan missing", k.o, k.p, k.trial))
			continue
		}
		l4 := 0
		s.Each(func(r results.HostRecord) {
			if r.L4() {
				l4++
			}
		})
		l7 := s.L7Count()
		switch {
		case s.Targets != wantTargets:
			errs = append(errs, fmt.Errorf("%v/%v/trial %d: %d targets, want %d", k.o, k.p, k.trial, s.Targets, wantTargets))
		case s.ProbesSent != s.Targets*uint64(cfg.Probes):
			errs = append(errs, fmt.Errorf("%v/%v/trial %d: %d probes sent for %d targets × %d probes", k.o, k.p, k.trial, s.ProbesSent, s.Targets, cfg.Probes))
		case l7 > l4 || l4 > w.NumHosts():
			errs = append(errs, fmt.Errorf("%v/%v/trial %d: L7 %d, L4 %d, world %d hosts: want L7 ≤ L4 ≤ world", k.o, k.p, k.trial, l7, l4, w.NumHosts()))
		}
	}
	return errs
}

// hashWriter is the export sink: it hashes and counts the dataset JSON.
type hashWriter struct {
	h hash.Hash
	n int64
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) Write(p []byte) (int, error) {
	w.h.Write(p)
	w.n += int64(len(p))
	return len(p), nil
}

func (w *hashWriter) digest() string { return hex.EncodeToString(w.h.Sum(nil)) }

// digestOf exports ds through WriteJSON and returns its SHA-256 and size.
func digestOf(ds *results.Dataset) (string, int64, error) {
	hw := newHashWriter()
	if err := ds.WriteJSON(hw); err != nil {
		return "", 0, fmt.Errorf("export: %w", err)
	}
	return hw.digest(), hw.n, nil
}

// recordedDigests holds the dataset digest of each workload at each seed
// it was recorded for: workload name → seed → SHA-256 of WriteJSON.
//
//go:embed digests.json
var recordedDigestsJSON []byte

func recordedDigest(workload string, seed uint64) (string, bool, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(recordedDigestsJSON, &all); err != nil {
		return "", false, fmt.Errorf("digests.json: %w", err)
	}
	d, ok := all[workload][strconv.FormatUint(seed, 10)]
	return d, ok, nil
}
