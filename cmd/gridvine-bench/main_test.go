package main

import (
	"errors"
	"io"
	"strings"
	"testing"

	"gridvine/internal/experiments"
)

// gatedResult is a result whose gate returns gateErr.
type gatedResult struct{ gateErr error }

func (gatedResult) Table() string  { return "table\n" }
func (r gatedResult) Check() error { return r.gateErr }

func fakeExperiment(id string, r experiments.Result, err error) experiments.Experiment {
	return experiments.Experiment{
		ID:    id,
		Title: "fake " + id,
		Run:   func(bool, int64) (experiments.Result, error) { return r, err },
	}
}

// TestRunExperimentsKeepsResultsPastAFailure: a failed gate or a failed run
// surfaces as the loop's error — it does not exit the process — and every
// passing experiment, before or after the failure, keeps its entry.
func TestRunExperimentsKeepsResultsPastAFailure(t *testing.T) {
	entries, err := runExperiments(io.Discard, []experiments.Experiment{
		fakeExperiment("A", gatedResult{}, nil),
		fakeExperiment("B", gatedResult{gateErr: errors.New("inequality violated")}, nil),
		fakeExperiment("C", nil, errors.New("overlay build failed")),
		fakeExperiment("D", gatedResult{}, nil),
	}, true, 7)
	if err == nil {
		t.Fatal("a failing gate and a failing run returned no error")
	}
	for _, want := range []string{"experiment B failed its gate: inequality violated", "experiment C failed: overlay build failed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not report %q", err, want)
		}
	}
	if len(entries) != 2 || entries[0].Experiment != "A" || entries[1].Experiment != "D" {
		t.Fatalf("entries = %+v, want the passing A and D only", entries)
	}
	if !entries[0].Quick || entries[0].Seed != 7 {
		t.Errorf("entry does not record the run parameters: %+v", entries[0])
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all", 1)
	if err != nil || len(all) != len(experiments.All) {
		t.Fatalf("all: %d experiments, err %v", len(all), err)
	}
	some, err := selectExperiments("r, k", 1)
	if err != nil || len(some) != 2 || some[0].ID != "R" || some[1].ID != "K" {
		t.Fatalf("r,k: %+v, err %v", some, err)
	}
	if _, err := selectExperiments("Q", 1); err == nil {
		t.Error("the deleted EXP-Q still resolves")
	}
}
