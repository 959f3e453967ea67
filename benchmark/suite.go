package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// resultsFile is what the all-workloads mode writes and --check reads.
type resultsFile struct {
	Environment environment   `json:"environment"`
	Seed        int64         `json:"seed"`
	Seconds     int           `json:"seconds"`
	Runs        int           `json:"runs"`
	Clients     int           `json:"clients"`
	Cluster     clusterShape  `json:"cluster"`
	Workloads   []workloadRow `json:"workloads"`
	Results     []runRecord   `json:"results"`
	// Claim is always null: a results file states what was measured, a
	// gain is claimed by a change that compares two of them.
	Claim *string `json:"claim"`
}

type clusterShape struct {
	Daemons       int `json:"daemons"`
	Peers         int `json:"peers"`
	ReplicaFactor int `json:"replica_factor"`
	CorpusSeed    int `json:"corpus_seed"`
	Schemas       int `json:"schemas"`
	Entities      int `json:"entities"`
}

type workloadRow struct {
	Name         string  `json:"name"`
	OpenRate     float64 `json:"open_loop_rate_per_s"`
	OpsPerClient int     `json:"generated_ops_per_client"`
}

type runRecord struct {
	Workload string         `json:"workload"`
	Trace    bool           `json:"trace"`
	Samples  map[string]int `json:"samples"`
	// Raw is the gated run's `raw:` line: the time-based metrics before the
	// division by the machine's speed factor, and the factor.
	Raw map[string]float64 `json:"raw,omitempty"`
	runResult
}

// runSuite runs every workload `runs` times, gated and traced, each in a
// fresh child process of this binary so heap and store size never carry
// over, and writes the results file.
func runSuite(seed int64, seconds, runs int, path string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := tempRoot()
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	file := resultsFile{
		Environment: currentEnvironment(tmp),
		Seed:        seed, Seconds: seconds, Runs: runs, Clients: clients,
		Cluster: clusterShape{clusterDaemons, clusterPeers, replicaFactor, corpusSeed, corpusSchemas, corpusEntities},
	}
	for _, spec := range workloadSpecs {
		file.Workloads = append(file.Workloads, workloadRow{spec.Name, spec.OpenRate, opsPerClient})
	}
	spansDir := strings.TrimSuffix(path, filepath.Ext(path)) + "-spans"
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	for r := 0; r < runs; r++ {
		for _, spec := range workloadSpecs {
			for _, traced := range []bool{false, true} {
				args := []string{
					"--workload", spec.Name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.Itoa(seconds), "--trace", "0",
				}
				if traced {
					args[len(args)-1] = "1"
					// One span file per workload; later runs overwrite it.
					args = append(args, "--out", filepath.Join(spansDir, spec.Name+".jsonl"))
				}
				rec, err := runChild(self, args)
				if err != nil {
					return fmt.Errorf("run %d of %s (trace %v): %w", r+1, spec.Name, traced, err)
				}
				rec.Workload, rec.Trace = spec.Name, traced
				file.Results = append(file.Results, *rec)
			}
		}
	}
	raw, err := json.MarshalIndent(&file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d runs to %s\n", len(file.Results), path)
	fmt.Println(`"claim": null`)
	return nil
}

// runChild runs one workload in a child process, echoes its output and
// parses the result line and the sample counts out of it.
func runChild(self string, args []string) (*runRecord, error) {
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	return parseChildOutput(out.Bytes())
}

func parseChildOutput(out []byte) (*runRecord, error) {
	rec := &runRecord{Samples: map[string]int{}, Raw: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) != "" {
			last = line
		}
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "raw:"); ok {
			for _, kv := range strings.Fields(rest) {
				if k, v, ok := strings.Cut(kv, "="); ok {
					if x, err := strconv.ParseFloat(v, 64); err == nil {
						rec.Raw[k] = x
					}
				}
			}
		}
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "samples:"); ok {
			for _, kv := range strings.Fields(rest) {
				if k, v, ok := strings.Cut(kv, "="); ok {
					if n, err := strconv.Atoi(v); err == nil {
						rec.Samples[k] = n
					}
				}
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &rec.runResult); err != nil {
		return nil, fmt.Errorf("child printed no result line: %w", err)
	}
	return rec, nil
}
