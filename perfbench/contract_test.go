package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step: same workloads, same metric names and units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range f.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads %v, program runs %v", got, want)
	}
	got, want = nil, nil
	for _, m := range f.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range endToEnd {
		want = append(want, m.name+" "+m.unit)
	}
	if !slices.Equal(got, want) {
		t.Errorf("end_to_end %v, program prints %v", got, want)
	}
	got, want = nil, nil
	for _, m := range f.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit)
	}
	if !slices.Equal(got, want) {
		t.Errorf("per_layer %v, program prints %v", got, want)
	}
}
