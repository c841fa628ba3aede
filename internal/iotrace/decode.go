package iotrace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"

	"datalife/internal/blockstats"
)

// decodeDoc parses a SaveJSON document in one pass over data, without the
// validation pre-pass and reflection of encoding/json. It accepts and
// rejects exactly what json.NewDecoder(r).Decode(&doc) does and yields the
// same persistDoc:
//
//   - only the first top-level value is read; bytes after it are ignored;
//   - a key selects a field by exact name, else by bytes.EqualFold (the fold
//     encoding/json applies); an unknown key's value is checked and skipped;
//   - null leaves a field as it is, except that it sets a slice to nil;
//   - an array decodes into the slice's existing elements and regrows it as
//     reflect.Value.Grow and SetLen do, so a repeated "tasks" or "flows" key
//     behaves as it does in encoding/json;
//   - a number passes the JSON grammar, then the strconv call encoding/json
//     makes for the field's type;
//   - a string holding '\', a control byte or a non-ASCII byte is unquoted by
//     json.Unmarshal on that one literal.
//
// Task and file names are interned, so a name repeated across records is
// stored once. Errors give the byte offset where decoding stopped.
func decodeDoc(data []byte) (persistDoc, error) {
	d := decoder{data: data, names: make(map[string]string)}
	var doc persistDoc
	d.space()
	return doc, decodeStruct(&d, &doc, docFields, 0)
}

// readAll reads r to its end into one buffer, sized up front when r reports
// its length: an *os.File through Stat, an in-memory reader through Len.
func readAll(r io.Reader) ([]byte, error) {
	size := 0
	switch v := r.(type) {
	case *os.File:
		if fi, err := v.Stat(); err == nil {
			size = int(fi.Size())
		}
	case interface{ Len() int }:
		size = v.Len()
	}
	// One byte of slack lets the final Read report EOF without a regrow.
	buf := make([]byte, 0, max(size+1, 512))
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if errors.Is(err, io.EOF) {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// maxDepth is encoding/json's limit on nested arrays and objects.
const maxDepth = 10000

// field decodes one key of a JSON object into a member of *T; depth is the
// number of arrays and objects enclosing the member's value.
type field[T any] struct {
	name   string
	decode func(d *decoder, v *T, depth int) error
}

// The field tables list each struct's JSON names in SaveJSON's order.
var (
	docFields = []field[persistDoc]{
		{"config", func(d *decoder, doc *persistDoc, depth int) error {
			return decodeStruct(d, &doc.Config, configFields, depth)
		}},
		{"tasks", func(d *decoder, doc *persistDoc, depth int) error {
			return decodeSlice(d, &doc.Tasks, taskFields, depth)
		}},
		{"flows", func(d *decoder, doc *persistDoc, depth int) error {
			return decodeSlice(d, &doc.Flows, flowFields, depth)
		}},
	}
	configFields = []field[blockstats.Config]{
		{"BlocksPerFile", func(d *decoder, c *blockstats.Config, _ int) error { return d.int(&c.BlocksPerFile) }},
		{"SampleP", func(d *decoder, c *blockstats.Config, _ int) error { return d.uint64(&c.SampleP) }},
		{"SampleT", func(d *decoder, c *blockstats.Config, _ int) error { return d.uint64(&c.SampleT) }},
		{"WriteBlockSize", func(d *decoder, c *blockstats.Config, _ int) error { return d.int64(&c.WriteBlockSize) }},
	}
	taskFields = []field[persistTask]{
		{"name", func(d *decoder, t *persistTask, _ int) error { return d.name(&t.Name) }},
		{"start", func(d *decoder, t *persistTask, _ int) error { return d.float64(&t.Start) }},
		{"end", func(d *decoder, t *persistTask, _ int) error { return d.float64(&t.End) }},
		{"incomplete", func(d *decoder, t *persistTask, _ int) error { return d.bool(&t.Incomplete) }},
	}
	flowFields = []field[persistFlow]{
		{"task", func(d *decoder, f *persistFlow, _ int) error { return d.name(&f.Task) }},
		{"file", func(d *decoder, f *persistFlow, _ int) error { return d.name(&f.File) }},
		{"file_size", func(d *decoder, f *persistFlow, _ int) error { return d.int64(&f.FileSize) }},
		{"block_size", func(d *decoder, f *persistFlow, _ int) error { return d.int64(&f.BlockSize) }},
		{"read_ops", func(d *decoder, f *persistFlow, _ int) error { return d.uint64(&f.ReadOps) }},
		{"write_ops", func(d *decoder, f *persistFlow, _ int) error { return d.uint64(&f.WriteOps) }},
		{"read_bytes", func(d *decoder, f *persistFlow, _ int) error { return d.uint64(&f.ReadBytes) }},
		{"write_bytes", func(d *decoder, f *persistFlow, _ int) error { return d.uint64(&f.WriteBytes) }},
		{"read_time", func(d *decoder, f *persistFlow, _ int) error { return d.float64(&f.ReadTime) }},
		{"write_time", func(d *decoder, f *persistFlow, _ int) error { return d.float64(&f.WriteTime) }},
		{"open_time", func(d *decoder, f *persistFlow, _ int) error { return d.float64(&f.OpenTime) }},
		{"close_time", func(d *decoder, f *persistFlow, _ int) error { return d.float64(&f.CloseTime) }},
		{"opens", func(d *decoder, f *persistFlow, _ int) error { return d.uint64(&f.Opens) }},
		{"closes", func(d *decoder, f *persistFlow, _ int) error { return d.uint64(&f.Closes) }},
		{"dist_sum", func(d *decoder, f *persistFlow, _ int) error { return d.float64(&f.DistSum) }},
		{"dist_n", func(d *decoder, f *persistFlow, _ int) error { return d.uint64(&f.DistN) }},
		{"zero_dist", func(d *decoder, f *persistFlow, _ int) error { return d.uint64(&f.ZeroDist) }},
		{"small_dist", func(d *decoder, f *persistFlow, _ int) error { return d.uint64(&f.SmallDist) }},
		{"read_footprint", func(d *decoder, f *persistFlow, _ int) error { return d.uint64(&f.ReadFootprint) }},
		{"write_footprint", func(d *decoder, f *persistFlow, _ int) error { return d.uint64(&f.WriteFootprint) }},
		{"total_footprint", func(d *decoder, f *persistFlow, _ int) error { return d.uint64(&f.TotalFootprint) }},
	}
)

// decodeStruct decodes an object, or null, into *v.
func decodeStruct[T any](d *decoder, v *T, fields []field[T], depth int) error {
	if d.peek() != '{' {
		return d.null("object")
	}
	next := 0 // SaveJSON writes the fields in table order
	return d.object(depth, func(key []byte) error {
		i := match(key, fields, next)
		if i < 0 {
			return d.skip(depth + 1)
		}
		next = i + 1
		return fields[i].decode(d, v, depth+1)
	})
}

// match returns the index of the field key names: an exact match, else a
// case-folded one, else -1. The exact search starts at hint.
func match[T any](key []byte, fields []field[T], hint int) int {
	i := hint
	for range fields {
		if i >= len(fields) {
			i = 0
		}
		if string(key) == fields[i].name {
			return i
		}
		i++
	}
	for i := range fields {
		if bytes.EqualFold(key, []byte(fields[i].name)) {
			return i
		}
	}
	return -1
}

// decodeSlice decodes an array of objects, or null, into *s.
func decodeSlice[T any](d *decoder, s *[]T, fields []field[T], depth int) error {
	if d.peek() != '[' {
		if err := d.null("array"); err != nil {
			return err
		}
		*s = nil
		return nil
	}
	v, i := *s, 0
	err := d.array(depth, func() error {
		// An element within capacity keeps whatever an earlier array
		// decoded there, as it does under reflect.Value.SetLen.
		if i >= cap(v) {
			v = slices.Grow(v, 1)
		}
		if i >= len(v) {
			v = v[:i+1]
		}
		i++
		return decodeStruct(d, &v[i-1], fields, depth+1)
	})
	if err != nil {
		return err
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return nil
}

// decoder is the parse position in one document, with the names interned
// so far.
type decoder struct {
	data  []byte
	off   int
	names map[string]string
}

// peek returns the byte at the offset, or 0 at the end of the input.
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// space skips JSON whitespace: ' ', '\t', '\n' and '\r'.
func (d *decoder) space() {
	const mask = 1<<' ' | 1<<'\t' | 1<<'\n' | 1<<'\r'
	i := d.off
	for i < len(d.data) && d.data[i] <= ' ' && mask>>d.data[i]&1 != 0 {
		i++
	}
	d.off = i
}

// literal consumes lit if the input continues with it.
func (d *decoder) literal(lit string) bool {
	if len(d.data)-d.off >= len(lit) && string(d.data[d.off:d.off+len(lit)]) == lit {
		d.off += len(lit)
		return true
	}
	return false
}

func (d *decoder) unexpected(context string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("unexpected end of input %s at offset %d", context, d.off)
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.off], context, d.off)
}

// null consumes a null, which leaves the field it names unchanged; any other
// value is an error, as a value of the wrong kind for the field.
func (d *decoder) null(want string) error {
	if d.literal("null") {
		return nil
	}
	return d.unexpected("looking for " + want)
}

// object parses the object at the offset, calling member with the offset at
// each member's value.
func (d *decoder) object(depth int, member func(key []byte) error) error {
	if depth >= maxDepth {
		return fmt.Errorf("exceeded max depth at offset %d", d.off)
	}
	d.off++ // '{'
	d.space()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.unexpected("after object key")
		}
		d.off++
		d.space()
		if err := member(key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.off++
			d.space()
		case '}':
			d.off++
			return nil
		default:
			return d.unexpected("after object key:value pair")
		}
	}
}

// array parses the array at the offset, calling elem with the offset at each
// element.
func (d *decoder) array(depth int, elem func() error) error {
	if depth >= maxDepth {
		return fmt.Errorf("exceeded max depth at offset %d", d.off)
	}
	d.off++ // '['
	d.space()
	if d.peek() == ']' {
		d.off++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.off++
			d.space()
		case ']':
			d.off++
			return nil
		default:
			return d.unexpected("after array element")
		}
	}
}

// skip checks the syntax of the value at the offset and moves past it.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(depth, func([]byte) error { return d.skip(depth + 1) })
	case c == '[':
		return d.array(depth, func() error { return d.skip(depth + 1) })
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case d.literal("true"), d.literal("false"), d.literal("null"):
		return nil
	}
	return d.unexpected("looking for beginning of value")
}

// str returns the contents of the string literal at the offset, unquoted.
// Plain ASCII is returned in place; anything else is unquoted by
// json.Unmarshal, which also rejects what the JSON grammar does.
func (d *decoder) str() ([]byte, error) {
	start := d.off
	i := start + 1
	for i < len(d.data) && plainByte[d.data[i]] {
		i++
	}
	if i < len(d.data) && d.data[i] == '"' {
		d.off = i + 1
		return d.data[start+1 : i], nil
	}
	for ; i < len(d.data) && d.data[i] != '"'; i++ {
		if d.data[i] == '\\' {
			i++ // the escaped byte cannot close the literal
		}
	}
	if i >= len(d.data) {
		d.off = len(d.data)
		return nil, d.unexpected("in string literal")
	}
	d.off = i + 1
	var s string
	if err := json.Unmarshal(d.data[start:d.off], &s); err != nil {
		return nil, fmt.Errorf("string literal at offset %d: %w", start, err)
	}
	return []byte(s), nil
}

// plainByte marks the bytes a string literal holds as themselves: printable
// ASCII other than '"' and '\'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// name decodes a string, or null, into *dst, interning it.
func (d *decoder) name(dst *string) error {
	if d.peek() != '"' {
		return d.null("string")
	}
	b, err := d.str()
	if err != nil {
		return err
	}
	s, ok := d.names[string(b)]
	if !ok {
		s = string(b)
		d.names[s] = s
	}
	*dst = s
	return nil
}

func (d *decoder) bool(dst *bool) error {
	switch {
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return d.null("bool")
	}
	return nil
}

// number returns the number literal at the offset, checked against the JSON
// grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() ([]byte, error) {
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.unexpected("in numeric literal")
	}
	if d.peek() == '.' {
		d.off++
		if d.digits() == 0 {
			return nil, d.unexpected("after decimal point in numeric literal")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if d.digits() == 0 {
			return nil, d.unexpected("in exponent of numeric literal")
		}
	}
	return d.data[start:d.off], nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	i := d.off
	for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
		i++
	}
	n := i - d.off
	d.off = i
	return n
}

// numeral returns the number literal at the offset, or nil for null.
func (d *decoder) numeral() ([]byte, error) {
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return nil, d.null("number")
	}
	return d.number()
}

// rangeError reports a number literal ending at end that strconv rejects
// for its field's type.
func rangeError(lit []byte, end int) error {
	return fmt.Errorf("number %s does not fit its field at offset %d", lit, end-len(lit))
}

func (d *decoder) int64(dst *int64) error {
	lit, err := d.numeral()
	if lit == nil || err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return rangeError(lit, d.off)
	}
	*dst = n
	return nil
}

func (d *decoder) int(dst *int) error {
	n := int64(*dst)
	if err := d.int64(&n); err != nil {
		return err
	}
	if int64(int(n)) != n {
		return fmt.Errorf("number %d does not fit an int at offset %d", n, d.off)
	}
	*dst = int(n)
	return nil
}

func (d *decoder) uint64(dst *uint64) error {
	lit, err := d.numeral()
	if lit == nil || err != nil {
		return err
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		return rangeError(lit, d.off)
	}
	*dst = n
	return nil
}

func (d *decoder) float64(dst *float64) error {
	lit, err := d.numeral()
	if lit == nil || err != nil {
		return err
	}
	n, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return rangeError(lit, d.off)
	}
	*dst = n
	return nil
}
