package solve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// marshalScenario is the canonical scenario encoding (scenarios have no
// custom marshaler; the envelope conventions come from the struct tags).
func marshalScenario(s Scenario) ([]byte, error) { return json.Marshal(s) }

// Native fuzz targets for the JSON envelope decode path: whatever bytes
// arrive (the HTTP service accepts them from the network), ParseQuery and
// ParseScenario must never panic, and any input they accept must be stable
// under decode→encode→decode — the encoded form is the canonical envelope,
// so re-decoding it must succeed, reproduce the same value, and re-encode
// to identical bytes. Seed corpora come from the checked-in CLI testdata.

// corpusSeeds loads every matching JSON file as a fuzz seed.
func corpusSeeds(f *testing.F, glob string) {
	f.Helper()
	paths, err := filepath.Glob(glob)
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatalf("no seed corpus at %s", glob)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

func FuzzQueryUnmarshal(f *testing.F) {
	corpusSeeds(f, filepath.Join("..", "..", "cmd", "feasim", "testdata", "query_*.json"))
	// Hostile shapes: wrong types, duplicate keys, deep junk, empty kinds.
	for _, s := range []string{
		``,
		`null`,
		`{"kind": ""}`,
		`{"kind": "report", "scenario": null}`,
		`{"kind": "threshold", "w": 1e309}`,
		`{"kind": "scaled", "t": 1, "o": 1, "util": 0, "ws": []}`,
		`{"kind": "distribution", "scenario": {"j": 1, "w": 1, "o": 1}, "quantiles": [0.5], "kind": "report"}`,
		`{"kind": "timeline", "scenario": {"j": 400, "w": 4, "o": 10, "schedule": [{"name": "day", "duration": 600, "util": 0.1}, {"duration": 600, "util": 0.01}]}, "epochs": 4}`,
		`{"kind": "timeline", "scenario": {"j": 400, "w": 4, "o": 10, "trace": [{"duration": 1e-300, "util": 0.999999}]}, "samples": -1}`,
		`{"kind": "timeline", "scenario": {"j": 1, "w": 1, "o": 1, "util": 0.1}}`,
		`{"kind": "timeline", "scenario": {"j": 1, "w": 1, "o": 1, "schedule": [{"duration": -5, "util": 0}], "trace": [{"duration": 0, "util": 2}]}, "start": -1e309, "horizon": 1e309}`,
		`{"kind": "timeline", "scenario": {"j": 1, "w": 1, "o": 1, "schedule": []}}`,
		// Fractional phase durations, by horizon and by epoch count: both
		// hung or failed before the segment cursor.
		`{"kind": "timeline", "scenario": {"j": 400, "w": 4, "o": 10, "schedule": [{"duration": 0.1, "util": 0.1}, {"duration": 0.2, "util": 0.3}, {"duration": 0.3, "util": 0.5}]}, "horizon": 1.2}`,
		`{"kind": "timeline", "scenario": {"j": 400, "w": 4, "o": 10, "schedule": [{"duration": 0.1, "util": 0.1}, {"duration": 0.2, "util": 0.3}, {"duration": 0.3, "util": 0.5}]}, "epochs": 3}`,
		// Heterogeneous fleets: model-form scenarios and station templates,
		// valid and hostile (p out of range, template with aggregate util,
		// distribution form where the model form is required).
		`{"kind": "report", "scenario": {"j": 400, "o": 10, "stations": [{"p": 0.03, "count": 2}, {"p": 0.08, "count": 2}]}}`,
		`{"kind": "threshold", "w": 4, "o": 10, "target_eff": 0.7, "stations": [{"p": 0.03, "count": 2}, {"p": 0.08, "speed": 2, "count": 2}]}`,
		`{"kind": "threshold", "w": 4, "o": 10, "util": 0.05, "target_eff": 0.7, "stations": [{"p": 0.03}]}`,
		`{"kind": "threshold", "w": 4, "o": 10, "target_eff": 0.7, "stations": [{"owner_think": "exp:90", "owner_demand": "det:10"}]}`,
		`{"kind": "partition", "j": 400, "o": 10, "target_eff": 0.5, "max_w": 8, "stations": [{"p": 0.03, "count": 1}, {"p": 0.08, "speed": 2}]}`,
		`{"kind": "partition", "j": 400, "o": 10, "target_eff": 0.5, "max_w": 8, "stations": [{"p": 1.5, "count": 2}]}`,
		`{"kind": "scaled", "t": 100, "o": 10, "ws": [1, 4], "stations": [{"util": 0.1, "count": 3}, {"p": 0.9999}]}`,
		`{"kind": "scaled", "t": 100, "o": 10, "ws": [1], "stations": [{"p": 0.1, "count": -3}]}`,
		`{"kind": "distribution", "scenario": {"j": 400, "o": 10, "stations": [{"util": 0.05, "count": 2}, {"util": 0.1, "speed": 1e309, "count": 2}]}, "quantiles": [0.5]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := ParseQuery(data)
		if err != nil {
			return // rejected inputs just must not panic
		}
		enc, err := MarshalQuery(q)
		if err != nil {
			t.Fatalf("accepted query failed to marshal: %v\ninput: %q", err, data)
		}
		q2, err := ParseQuery(enc)
		if err != nil {
			t.Fatalf("canonical envelope failed to re-parse: %v\nenvelope: %s", err, enc)
		}
		if q2.Kind() != q.Kind() {
			t.Fatalf("kind changed across round trip: %q -> %q", q.Kind(), q2.Kind())
		}
		enc2, err := MarshalQuery(q2)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("envelope not stable under decode->encode->decode:\n first: %s\nsecond: %s", enc, enc2)
		}
		// One more hop pins the decoded value as a fixed point of the
		// canonical form.
		q3, err := ParseQuery(enc2)
		if err != nil {
			t.Fatalf("third parse failed: %v", err)
		}
		if !reflect.DeepEqual(q2, q3) {
			t.Fatalf("decoded value not a fixed point:\n %+v\n %+v", q2, q3)
		}
	})
}

func FuzzQuerySweepUnmarshal(f *testing.F) {
	corpusSeeds(f, filepath.Join("..", "..", "cmd", "feasim", "testdata", "query_*.json"))
	for _, s := range []string{
		``,
		`{}`,
		`{"base": {"kind": "threshold", "w": 20, "o": 10, "target_eff": 0.8}, "util": [0.05, 0.1]}`,
		// The hostile timeline case of the util-axis bugfix: 0.8 rescales the
		// day phase past saturation — a per-point domain error, never an
		// expansion abort (and never a panic).
		`{"base": {"kind": "timeline", "scenario": {"j": 400, "w": 4, "o": 10, "schedule": [{"name": "day", "duration": 480, "util": 0.2}, {"name": "night", "duration": 960, "util": 0.05}]}, "epochs": 2}, "util": [0.1, 0.8]}`,
		// The task_ratio axis over an explicit-station scenario must be
		// rejected, not expanded into J = 0 grids.
		`{"base": {"kind": "report", "scenario": {"stations": [{"owner_think": "exp:90", "owner_demand": "det:10"}], "task_demand": "det:100"}}, "task_ratio": [5, 10], "backends": ["des"]}`,
		`{"base": {"kind": "report", "scenario": {"j": 1, "w": 1, "o": 1, "util": 0.1}}, "w": [0], "util": [-1], "task_ratio": [1e309]}`,
		`{"base": {"kind": "scaled", "t": 100, "o": 10, "util": 0.1, "ws": [1]}, "backends": ["bogus"]}`,
		// Spread axis: a hostile value (3) pushes a station below p = 0 at one
		// grid point — a per-point domain error that must stay marshalable.
		`{"base": {"kind": "report", "scenario": {"j": 2000, "w": 20, "o": 10, "target_eff": 0.8, "stations": [{"p": 0.005, "count": 10}, {"p": 0.018, "count": 10}]}}, "spread": [0, 1, 3]}`,
		// A spread axis over a homogeneous base is a whole-grid rejection.
		`{"base": {"kind": "report", "scenario": {"j": 1, "w": 1, "o": 1, "util": 0.1}}, "spread": [0.5]}`,
		`{"base": {"kind": "threshold", "w": 4, "o": 10, "target_eff": 0.7, "stations": [{"p": 0.03, "count": 2}, {"p": 0.08, "count": 2}]}, "spread": [0, 1.5]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp QuerySweepSpec
		if err := json.Unmarshal(data, &sp); err != nil {
			return // rejected inputs just must not panic
		}
		// Expansion is the cross product of the axis lists; bound it before
		// walking a hostile grid (the decode path above is the fuzz surface,
		// expansion just must not panic on accepted shapes).
		n := max(len(sp.W), 1) * max(len(sp.Util), 1) * max(len(sp.TaskRatio), 1) *
			max(len(sp.OwnerCV2), 1) * max(len(sp.Spread), 1) * max(len(sp.Backends), 1)
		if n > 4096 {
			return
		}
		pts, err := sp.Points()
		if err != nil {
			return
		}
		for _, p := range pts {
			// Every expanded point — including per-point domain errors — must
			// keep the wire shape encodable.
			if _, err := p.MarshalJSON(); err != nil {
				t.Fatalf("expanded point %d failed to marshal: %v\ninput: %q", p.Index, err, data)
			}
			if p.Err == nil {
				if err := p.Query.Validate(); err != nil {
					t.Fatalf("expansion accepted an invalid point %d: %v\ninput: %q", p.Index, err, data)
				}
			}
		}
	})
}

func FuzzFrontierUnmarshal(f *testing.F) {
	for _, s := range []string{
		``,
		`{}`,
		`{"base": {"kind": "report", "scenario": {"j": 2000, "w": 20, "o": 10, "util": 0.1, "target_eff": 0.8}}, "x": {"axis": "util", "min": 0.02, "max": 0.2}, "y": {"axis": "task_ratio", "min": 1, "max": 40}}`,
		`{"base": {"kind": "timeline", "scenario": {"j": 400, "w": 4, "o": 10, "target_eff": 0.5, "schedule": [{"duration": 480, "util": 0.2}, {"duration": 960, "util": 0.05}]}, "epochs": 2}, "x": {"axis": "util", "min": 0.05, "max": 0.6}, "y": {"axis": "w", "min": 2, "max": 10}, "coarse": 2, "depth": 1}`,
		`{"base": {"kind": "threshold", "w": 20, "o": 10, "target_eff": 0.8}, "x": {"axis": "util", "min": 0, "max": 0.5}, "y": {"axis": "util", "min": 0, "max": 0.5}}`,
		`{"x": {"axis": "w", "min": 1e309, "max": -1e309}, "y": {"axis": "util", "min": 0.5, "max": 0.1}, "coarse": -1, "depth": 99}`,
		`{"base": {"kind": "report", "scenario": {"j": 2000, "w": 20, "o": 10, "target_eff": 0.8, "stations": [{"p": 0.005, "count": 10}, {"p": 0.018, "count": 10}]}}, "x": {"axis": "spread", "min": 0, "max": 1.6}, "y": {"axis": "task_ratio", "min": 1, "max": 40}, "coarse": 2, "depth": 2}`,
		`{"base": {"kind": "report", "scenario": {"j": 2000, "w": 20, "o": 10, "target_eff": 0.8, "stations": [{"p": 0.005, "count": 10}]}}, "x": {"axis": "spread", "min": -1, "max": 1}, "y": {"axis": "w", "min": 2, "max": 10}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseFrontier(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted frontier spec failed to marshal: %v\ninput: %q", err, data)
		}
		sp2, err := ParseFrontier(enc)
		if err != nil {
			t.Fatalf("canonical frontier spec failed to re-parse: %v\nencoded: %s", err, enc)
		}
		if !reflect.DeepEqual(sp, sp2) {
			t.Fatalf("frontier spec not a fixed point:\n %+v\n %+v", sp, sp2)
		}
	})
}

func FuzzScenarioUnmarshal(f *testing.F) {
	corpusSeeds(f, filepath.Join("..", "..", "testdata", "scenario.json"))
	for _, s := range []string{
		``,
		`{}`,
		`{"j": 1000, "w": 10, "o": 10, "util": 0.05}`,
		`{"stations": [{"owner_think": "exp:90", "owner_demand": "det:10"}], "task_demand": "det:100"}`,
		`{"j": 1, "w": 1, "o": 1, "util": 0.5, "p": 0.5}`,
		`{"j": 1000, "w": 10, "o": 10, "util": 0.05, "seed": 18446744073709551615}`,
		`{"j": 400, "w": 4, "o": 10, "schedule": [{"name": "day", "duration": 480, "util": 0.3}, {"name": "night", "duration": 960, "util": 0.02}]}`,
		`{"j": 400, "w": 4, "o": 10, "trace": [{"duration": 60, "util": 0.5}, {"duration": 600, "util": 0.01}]}`,
		`{"j": 400, "w": 4, "o": 10, "schedule": [{"duration": 0, "util": 0.1}]}`,
		`{"j": 400, "w": 4, "o": 10, "util": 0.1, "schedule": [{"duration": 100, "util": 0.1}], "trace": [{"duration": 100, "util": 0.1}]}`,
		// Heterogeneous model-form fleets, valid and hostile: out-of-range
		// and conflicting availabilities, negative counts and speeds, a W
		// that disagrees with the station total, and a mix of the model and
		// distribution station forms.
		`{"j": 400, "o": 10, "stations": [{"p": 0.03, "count": 2}, {"p": 0.08, "count": 2}]}`,
		`{"j": 400, "o": 10, "stations": [{"util": 0.05, "count": 2}, {"util": 0.1, "speed": 2, "count": 2}]}`,
		`{"j": 400, "o": 10, "stations": [{"p": 1, "count": 4}]}`,
		`{"j": 400, "o": 10, "stations": [{"p": 1.5, "count": 4}]}`,
		`{"j": 400, "o": 10, "stations": [{"p": -0.25, "count": 4}]}`,
		`{"j": 400, "o": 10, "stations": [{"p": 0.1, "count": -3}]}`,
		`{"j": 400, "o": 10, "stations": [{"p": 0.1, "util": 0.2, "count": 4}]}`,
		`{"j": 400, "o": 10, "stations": [{"p": 0.1, "speed": -2, "count": 4}]}`,
		`{"j": 400, "o": 10, "stations": [{"p": 0.1, "speed": 1e309, "count": 4}]}`,
		`{"j": 400, "w": 7, "o": 10, "stations": [{"p": 0.1, "count": 4}]}`,
		`{"j": 400, "w": 4, "o": 10, "util": 0.05, "stations": [{"p": 0.1, "count": 4}]}`,
		`{"j": 400, "o": 10, "stations": [{"p": 0.1, "count": 2}, {"owner_think": "exp:90", "owner_demand": "det:10"}]}`,
		`{"j": 400, "o": 10, "task_demand": "det:100", "stations": [{"p": 0.1, "count": 4}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseScenario(data)
		if err != nil {
			return
		}
		enc, err := marshalScenario(s)
		if err != nil {
			t.Fatalf("accepted scenario failed to marshal: %v\ninput: %q", err, data)
		}
		s2, err := ParseScenario(enc)
		if err != nil {
			t.Fatalf("canonical scenario failed to re-parse: %v\nencoded: %s", err, enc)
		}
		enc2, err := marshalScenario(s2)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("scenario not stable under decode->encode->decode:\n first: %s\nsecond: %s", enc, enc2)
		}
		s3, err := ParseScenario(enc2)
		if err != nil {
			t.Fatalf("third parse failed: %v", err)
		}
		if !reflect.DeepEqual(s2, s3) {
			t.Fatalf("decoded scenario not a fixed point:\n %+v\n %+v", s2, s3)
		}
	})
}
