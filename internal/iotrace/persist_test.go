package iotrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"datalife/internal/blockstats"
)

// decodeReference decodes data with encoding/json's reflection decoder: the
// oracle decodeDoc must match on every input.
func decodeReference(data []byte) (persistDoc, error) {
	var doc persistDoc
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc)
	return doc, err
}

// loadMismatch runs data through LoadJSON and decodeDoc and through the
// oracle, and describes how they differ: in acceptance, in the loaded state
// or in any decoded field, floats to the bit. It returns "" when they agree.
func loadMismatch(data []byte) string {
	want, wantErr := decodeReference(data)
	st, err := LoadJSON(bytes.NewReader(data))
	doc, docErr := decodeDoc(data)
	if (err == nil) != (wantErr == nil) || (docErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("LoadJSON error %v, decodeDoc error %v, encoding/json error %v", err, docErr, wantErr)
	}
	if err != nil {
		return ""
	}
	if ref := want.state(); !reflect.DeepEqual(st, ref) {
		return fmt.Sprintf("LoadJSON state\n%+v\nwant\n%+v", st, ref)
	}
	// %#v spells every float in full, so -0 and 0 differ.
	if got, ref := fmt.Sprintf("%#v", doc), fmt.Sprintf("%#v", want); !reflect.DeepEqual(doc, want) || got != ref {
		return fmt.Sprintf("decoded document\n%s\nwant\n%s", got, ref)
	}
	return ""
}

// TestFieldTablesMatchTags keeps the decoder's field tables in step with the
// struct fields and tags SaveJSON encodes by, in order.
func TestFieldTablesMatchTags(t *testing.T) {
	check := func(v any, names []string) {
		var want []string
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if name == "" {
				name = typ.Field(i).Name
			}
			want = append(want, name)
		}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("%v: decoder fields %v, struct fields %v", typ, names, want)
		}
	}
	check(persistDoc{}, fieldNames(docFields))
	check(blockstats.Config{}, fieldNames(configFields))
	check(persistTask{}, fieldNames(taskFields))
	check(persistFlow{}, fieldNames(flowFields))
}

func fieldNames[T any](fields []field[T]) []string {
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.name
	}
	return names
}

func collectSample(t *testing.T) *Collector {
	t.Helper()
	e := newEnv(t)
	e.col.TaskStarted("w", 0)
	tr := e.tracer("w")
	h, err := tr.Open("data.bin", WRONLY|CREATE)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		h.Write(1000)
	}
	h.Close()
	e.col.TaskEnded("w", e.clk.Now())
	e.col.TaskStarted("r", e.clk.Now())
	rd := e.tracer("r")
	rh, err := rd.Open("data.bin", RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	rh.Read(4000) // partial footprint
	rh.Close()
	e.col.TaskEnded("r", e.clk.Now())
	return e.col
}

func TestSaveLoadRoundTrip(t *testing.T) {
	col := collectSample(t)
	var buf bytes.Buffer
	if err := col.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Config.BlocksPerFile != col.Config().BlocksPerFile {
		t.Fatal("config lost")
	}
	if len(st.Tasks) != 2 || len(st.Flows) != 2 {
		t.Fatalf("tasks=%d flows=%d", len(st.Tasks), len(st.Flows))
	}
	var reader *SavedFlow
	for i := range st.Flows {
		if st.Flows[i].Task == "r" {
			reader = &st.Flows[i]
		}
	}
	if reader == nil {
		t.Fatal("reader flow missing")
	}
	if reader.ReadBytes != 4000 || reader.ReadOps != 1 {
		t.Fatalf("reader: %+v", reader)
	}
	if reader.ReadFootprint == 0 || reader.FileSize != 8000 {
		t.Fatalf("reader derived fields: %+v", reader)
	}
	// Lifetimes survive.
	if st.Tasks[0].Lifetime() <= 0 {
		t.Fatal("task lifetime lost")
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	col := collectSample(t)
	var a, b bytes.Buffer
	if err := col.SaveJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := col.SaveJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("serialization not deterministic")
	}
}
