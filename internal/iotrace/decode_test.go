package iotrace_test

import (
	"bytes"
	"strings"
	"testing"

	"datalife/internal/iotrace"
	"datalife/internal/workflows"
)

// sampleDoc sets every field SaveJSON writes to a value other than its zero.
const sampleDoc = `{"config":{"BlocksPerFile":64,"SampleP":100,"SampleT":10,"WriteBlockSize":1048576},
"tasks":[{"name":"w","start":0,"end":1.5},{"name":"r","start":1.5,"end":2.25,"incomplete":true}],
"flows":[{"task":"w","file":"data.bin","file_size":8000,"block_size":1000,"read_ops":3,"write_ops":8,
"read_bytes":10,"write_bytes":8000,"read_time":0.5,"write_time":0.25,"open_time":0.125,"close_time":1,
"opens":1,"closes":1,"dist_sum":3,"dist_n":2,"zero_dist":1,"small_dist":1,"read_footprint":1,
"write_footprint":8,"total_footprint":9}]}`

// loadCases are inputs on which LoadJSON must agree with encoding/json:
// the same accept or reject, and the same decoded values.
var loadCases = []struct{ name, in string }{
	{"sample", sampleDoc},
	{"empty object", `{}`},
	{"empty arrays", `{"config":{},"tasks":[],"flows":[]}`},

	// Keys.
	{"reordered keys", `{"flows":[{"total_footprint":4,"task":"b","file":"f","read_ops":1}],
		"tasks":[{"end":2,"name":"b","start":1}],"config":{"WriteBlockSize":7,"BlocksPerFile":2}}`},
	{"duplicate field", `{"tasks":[{"name":"a","start":1,"name":"b","start":2}]}`},
	{"duplicate config", `{"config":{"BlocksPerFile":2,"SampleP":5},"config":{"BlocksPerFile":3}}`},
	{"duplicate tasks into elements", `{"tasks":[{"name":"a","start":1},{"name":"b"},{"name":"c"}],"tasks":[{"end":2}]}`},
	{"duplicate tasks regrow within capacity", `{"tasks":[{"name":"a"},{"name":"b"},{"name":"c"}],
		"tasks":[{"end":1}],"tasks":[{},{},{},{},{}]}`},
	{"duplicate tasks after empty", `{"tasks":[{"name":"a"},{"name":"b"}],"tasks":[],"tasks":[{},{}]}`},
	{"duplicate tasks after null", `{"tasks":[{"name":"a"},{"name":"b"}],"tasks":null,"tasks":[{},{}]}`},
	{"duplicate flows", `{"flows":[{"task":"a","file":"f","read_ops":1},{"task":"b"}],"flows":[{"write_ops":2}],
		"flows":[{},{}]}`},
	{"case-folded keys", `{"CONFIG":{"blocksperfile":3,"samplep":4},"Tasks":[{"NAME":"x","Start":1,"eNd":2}],
		"FLOWS":[{"Task":"x","FILE":"f","Read_Ops":5}]}`},
	{"long s folds to s", "{\"taſks\":[{\"name\":\"x\"}],\"flowſ\":[{\"taſk\":\"y\"}]}"},
	{"escaped long s folds to s", `{"ta\u017fks":[{"name":"x"}]}`},
	{"kelvin sign folds to k", "{\"flows\":[{\"tasK\":\"y\",\"blocK_size\":4}]}"},
	{"escaped kelvin sign", `{"tas\u212as":[{"name":"x"}]}`},
	{"escaped plain key", `{"t\u0061sks":[{"n\u0061me":"x"}]}`},
	{"near-miss key", `{"tasks_":[{"name":"x"}],"task":[1],"tasks":[{"nam":"y"}]}`},
	{"unknown keys with nested values", `{"extra":{"a":[1,-2.5e3,{"b":null,"c":[true,false]}],"d":"\u00e9\n"},
		"tasks":[{"name":"x","more":[[],{},[[{}]]],"start":1}],"flows":[{"x":{"y":"z"},"task":"x"}]}`},
	{"unknown key with bad string", `{"extra":"\x"}`},
	{"unknown key with bad number", `{"extra":01}`},
	{"unknown key with bad literal", `{"extra":nul}`},
	{"unknown key with trailing comma", `{"extra":[1,]}`},
	{"unknown key missing value", `{"extra":}`},
	{"key not a string", `{tasks:[]}`},
	{"missing colon", `{"tasks" []}`},
	{"trailing comma in object", `{"tasks":[],}`},
	{"missing comma", `{"tasks":[] "flows":[]}`},

	// null.
	{"null top level", `null`},
	{"null top level in space", " \t\r\n null \n"},
	{"null object", `{"config":null}`},
	{"null array", `{"tasks":null,"flows":null}`},
	{"null element", `{"tasks":[null,{"name":"x"},null],"flows":[null]}`},
	{"null scalars", `{"config":{"BlocksPerFile":null,"SampleP":null},"tasks":[{"name":null,"start":null,"end":null,
		"incomplete":null}],"flows":[{"task":null,"file_size":null,"read_ops":null,"read_time":null}]}`},
	{"null keeps earlier value", `{"tasks":[{"name":"a","start":2,"incomplete":true,"name":null,"start":null,"incomplete":null}]}`},
	{"truncated null", `nul`},
	{"misspelt null", `{"tasks":nulL}`},

	// Strings.
	{"escapes", `{"tasks":[{"name":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00"}]}`},
	{"unpaired surrogate", `{"tasks":[{"name":"\ud800x"}]}`},
	{"invalid escape", `{"tasks":[{"name":"\x"}]}`},
	{"short unicode escape", `{"tasks":[{"name":"\u12"}]}`},
	{"bad hex in escape", `{"tasks":[{"name":"\u12G4"}]}`},
	{"escape at end", `{"tasks":[{"name":"\`},
	{"invalid UTF-8", "{\"tasks\":[{\"name\":\"a\xff\xfeb\"}],\"flows\":[{\"file\":\"\xc3\"}]}"},
	{"non-ASCII", `{"tasks":[{"name":"données"}]}`},
	{"raw control byte", "{\"tasks\":[{\"name\":\"a\x01b\"}]}"},
	{"raw newline", "{\"tasks\":[{\"name\":\"a\nb\"}]}"},
	{"raw DEL", "{\"tasks\":[{\"name\":\"a\x7fb\"}]}"},
	{"control byte in key", "{\"ta\x00sks\":[]}"},
	{"invalid UTF-8 key", "{\"tasks\xff\":[{\"name\":\"x\"}]}"},
	{"unterminated string", `{"tasks":[{"name":"abc`},

	// The number grammar.
	{"leading zero", `{"tasks":[{"start":01}]}`},
	{"negative leading zero", `{"tasks":[{"start":-01}]}`},
	{"bare decimal point", `{"tasks":[{"start":1.}]}`},
	{"lone minus", `{"tasks":[{"start":-}]}`},
	{"double minus", `{"tasks":[{"start":--1}]}`},
	{"empty exponent", `{"tasks":[{"start":1e}]}`},
	{"signed empty exponent", `{"tasks":[{"start":1e+}]}`},
	{"negative zero", `{"tasks":[{"start":-0,"end":-0.0}],"flows":[{"file_size":-0,"read_time":-0e5}]}`},
	{"exponents", `{"tasks":[{"start":1E+2,"end":25e-1}],"flows":[{"read_time":1.5e-300,"write_time":5e-324}]}`},
	{"leading decimal point", `{"tasks":[{"start":.5}]}`},
	{"plus sign", `{"tasks":[{"start":+1}]}`},
	{"hex", `{"tasks":[{"start":0x1}]}`},
	{"infinity", `{"tasks":[{"start":Infinity}]}`},
	{"nan", `{"tasks":[{"start":NaN}]}`},
	{"number then letter", `{"tasks":[{"start":1x}]}`},
	{"long mantissa", `{"tasks":[{"start":0.1000000000000000055511151231257827021181583404541015625}]}`},
	{"halfway rounding", `{"tasks":[{"start":9007199254740993}]}`},

	// Numbers into fields.
	{"fraction into int", `{"flows":[{"file_size":1.5}]}`},
	{"integral fraction into int", `{"flows":[{"file_size":1.0}]}`},
	{"negative into uint", `{"flows":[{"read_ops":-1}]}`},
	{"negative zero into uint", `{"flows":[{"read_ops":-0}]}`},
	{"exponent into uint", `{"flows":[{"read_ops":1e3}]}`},
	{"exponent into int", `{"config":{"BlocksPerFile":1e3}}`},
	{"int64 bounds", `{"flows":[{"file_size":9223372036854775807,"block_size":-9223372036854775808}]}`},
	{"int64 overflow", `{"flows":[{"file_size":9223372036854775808}]}`},
	{"int overflow", `{"config":{"BlocksPerFile":-9223372036854775809}}`},
	{"uint64 bound", `{"flows":[{"read_ops":18446744073709551615}]}`},
	{"uint64 overflow", `{"flows":[{"read_ops":18446744073709551616}]}`},
	{"float overflow", `{"tasks":[{"start":1e400}]}`},
	{"negative float overflow", `{"tasks":[{"start":-1e400}]}`},
	{"float underflow", `{"tasks":[{"start":1e-400}]}`},

	// Values of the wrong kind.
	{"string into number", `{"tasks":[{"start":"1"}]}`},
	{"number into string", `{"tasks":[{"name":1}]}`},
	{"bool into string", `{"tasks":[{"name":true}]}`},
	{"number into bool", `{"tasks":[{"incomplete":1}]}`},
	{"false into bool", `{"tasks":[{"incomplete":false}]}`},
	{"object into array", `{"tasks":{}}`},
	{"array into object", `{"config":[]}`},
	{"number element", `{"tasks":[1]}`},
	{"string element", `{"flows":["x"]}`},

	// Input shape.
	{"empty input", ``},
	{"only space", " \n\t "},
	{"bytes after value", `{"tasks":[{"name":"x"}]} trailing garbage`},
	{"second value", `{"tasks":[]}{"tasks":[{"name":"x"}]}`},
	{"bracket after value", `{}]`},
	{"bytes after null", `null,`},
	{"letter after null", `nullx`},
	{"byte order mark", "\xef\xbb\xbf{}"},
	{"array top level", `[]`},
	{"number top level", `1`},
	{"string top level", `"x"`},
	{"bool top level", `true`},
	{"unclosed object", `{"tasks":[]`},
	{"unclosed array", `{"tasks":[{}`},
}

// nestingCases probe encoding/json's limit of 10,000 nested arrays and
// objects. They are too large to seed the fuzzer with.
var nestingCases = []struct{ name, in string }{
	{"nesting at the limit", `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`},
	{"nesting past the limit", `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`},
	{"object nesting past the limit", `{"x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`},
}

// TestLoadJSONMatchesEncodingJSON checks LoadJSON against encoding/json on
// corner cases of the JSON grammar and of encoding/json's field matching,
// and on every truncation of a small document.
func TestLoadJSONMatchesEncodingJSON(t *testing.T) {
	for _, c := range append(loadCases, nestingCases...) {
		if d := iotrace.LoadMismatch([]byte(c.in)); d != "" {
			t.Errorf("%s: %s", c.name, d)
		}
	}
	for i := 0; i <= len(sampleDoc); i++ {
		if d := iotrace.LoadMismatch([]byte(sampleDoc[:i])); d != "" {
			t.Errorf("sample truncated to %d bytes: %s", i, d)
		}
	}
}

// TestLoadJSONErrors pins the error form: the package prefix and the byte
// offset where decoding stopped.
func TestLoadJSONErrors(t *testing.T) {
	for in, want := range map[string]string{
		"{broken":                             "invalid character 'b' looking for beginning of object key string at offset 1",
		`{"tasks":[{"name":"x","start":01}]}`: "invalid character '1' after object key:value pair at offset 31",
		`{"flows":[{"read_ops":-1}]}`:         "number -1 does not fit its field at offset 22",
	} {
		_, err := iotrace.LoadJSON(strings.NewReader(in))
		if want = "iotrace: decoding saved state: " + want; err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", in, err, want)
		}
	}
}

// builtinStates returns the saved state of each builtin workflow, scaled
// down to one or two tasks per stage: the fuzzer minimizes every new input
// it keeps, at a cost that grows with the square of the input's length.
func builtinStates(tb testing.TB) [][]byte {
	tb.Helper()
	genomes := workflows.DefaultGenomes()
	genomes.Chromosomes, genomes.IndivPerChr, genomes.Populations = 1, 1, 1
	ddmd := workflows.DefaultDDMD()
	ddmd.SimTasks = 1
	belle2 := workflows.DefaultBelle2()
	belle2.Tasks, belle2.DatasetsPerTask, belle2.PoolDatasets = 2, 1, 2
	montage := workflows.DefaultMontage()
	montage.Images = 2
	seismic := workflows.DefaultSeismic()
	seismic.Stations, seismic.GroupSize = 2, 2
	random := workflows.DefaultRandom(1)
	random.Layers, random.TasksPerLayer = 2, 1
	specs := []*workflows.Spec{
		workflows.Genomes(genomes),
		workflows.DDMD(ddmd, 0),
		workflows.Belle2(belle2),
		workflows.Montage(montage),
		workflows.Seismic(seismic),
		workflows.Random(random),
	}
	var out [][]byte
	for _, s := range specs {
		col, _, err := workflows.RunCollector(s, workflows.RunOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := col.SaveJSON(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzLoadJSON checks that LoadJSON accepts exactly what encoding/json
// accepts and decodes the same values, starting from real saved states and
// the corner cases above.
func FuzzLoadJSON(f *testing.F) {
	for _, doc := range builtinStates(f) {
		f.Add(doc)
	}
	for _, c := range loadCases {
		f.Add([]byte(c.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := iotrace.LoadMismatch(data); d != "" {
			t.Fatal(d)
		}
	})
}
