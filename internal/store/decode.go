package store

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
)

// decodeStats decodes a record's payload in one pass. It accepts
// exactly the compact JSON json.Marshal writes for a core.Stats: every
// exported field in declaration order, null for a nil slice, map or
// pointer, map keys in sorted order, and no whitespace. A value whose
// type implements json.Unmarshaler, such as *cover.Set, is handed its
// own bytes. Anything else is an error, which Get treats as damage. A
// field of a kind the decoder cannot read would turn hits into repairs;
// TestEveryStatsFieldRoundTrips catches that.
func decodeStats(data []byte) (*core.Stats, error) {
	st := &core.Stats{}
	d := decoder{data: data}
	if err := statsDecoder(&d, reflect.ValueOf(st).Elem()); err != nil {
		return nil, err
	}
	if d.off != len(data) {
		return nil, d.errorf("data after the value")
	}
	return st, nil
}

// statsDecoder is compiled once from the type, so decoding walks no
// type information.
var statsDecoder = compileDecoder(reflect.TypeFor[core.Stats]())

// decoder is the read position in a payload.
type decoder struct {
	data []byte
	off  int
}

// decodeFunc decodes the next value of the input into v, which is
// settable and holds its type's zero value.
type decodeFunc func(d *decoder, v reflect.Value) error

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// literal consumes s when the input continues with it.
func (d *decoder) literal(s string) bool {
	if len(d.data)-d.off < len(s) || string(d.data[d.off:d.off+len(s)]) != s {
		return false
	}
	d.off += len(s)
	return true
}

// uint consumes an unsigned integer as strconv.AppendUint writes it: no
// sign, no leading zero, and no more than a uint64 holds.
func (d *decoder) uint() (uint64, error) {
	const cutoff = math.MaxUint64 / 10
	start := d.off
	var n uint64
	for ; d.off < len(d.data); d.off++ {
		c := uint64(d.data[d.off] - '0')
		if c > 9 {
			break
		}
		if n > cutoff || n == cutoff && c > math.MaxUint64%10 {
			return 0, d.errorf("integer overflows 64 bits")
		}
		n = n*10 + c
	}
	if d.off == start || d.data[start] == '0' && d.off-start > 1 {
		return 0, d.errorf("want an integer")
	}
	return n, nil
}

// str consumes a string as json.Marshal writes it and returns its value.
func (d *decoder) str() (string, error) {
	if !d.literal(`"`) {
		return "", d.errorf("want a string")
	}
	start, plain := d.off, true
	for ; d.off < len(d.data) && d.data[d.off] != '"'; d.off++ {
		switch c := d.data[d.off]; {
		case c == '\\':
			d.off++
			plain = false
		case c < ' ' || c >= utf8.RuneSelf || c == '<' || c == '>' || c == '&':
			plain = false
		}
	}
	if d.off >= len(d.data) {
		return "", d.errorf("string does not end")
	}
	d.off++
	if plain {
		return string(d.data[start : d.off-1]), nil
	}
	// Escapes and non-ASCII text: decode, then require the bytes to be
	// the value's own encoding.
	quoted := string(d.data[start-1 : d.off])
	s, err := strconv.Unquote(quoted)
	if err != nil || string(appendQuoted(nil, s)) != quoted {
		return "", d.errorf("string is not as json.Marshal writes it")
	}
	return s, nil
}

// compileDecoder returns the decoder for values of type t.
func compileDecoder(t reflect.Type) decodeFunc {
	if reflect.PointerTo(t).Implements(reflect.TypeFor[json.Unmarshaler]()) {
		return decodeUnmarshaler
	}
	switch t.Kind() {
	case reflect.Uint64:
		return func(d *decoder, v reflect.Value) error {
			n, err := d.uint()
			v.SetUint(n)
			return err
		}
	case reflect.Int64:
		return func(d *decoder, v reflect.Value) error {
			neg := d.literal("-")
			n, err := d.uint()
			switch {
			case err != nil:
				return err
			case neg && n == 0:
				return d.errorf("negative zero")
			case neg && n <= 1<<63:
				v.SetInt(int64(-n))
			case !neg && n < 1<<63:
				v.SetInt(int64(n))
			default:
				return d.errorf("integer overflows 64 bits")
			}
			return nil
		}
	case reflect.Array:
		return arrayDecoder(t)
	case reflect.Slice:
		return sliceDecoder(t)
	case reflect.Map:
		if t.Key() == reflect.TypeFor[string]() {
			return mapDecoder(t)
		}
	case reflect.Pointer:
		return pointerDecoder(t)
	case reflect.Struct:
		return structDecoder(t)
	}
	return unsupported(t)
}

func unsupported(t reflect.Type) decodeFunc {
	return func(d *decoder, _ reflect.Value) error {
		return d.errorf("cannot decode a %v", t)
	}
}

func structDecoder(t reflect.Type) decodeFunc {
	type field struct {
		index int
		name  string // `{"Name":` for the first field, `,"Name":` after
		dec   decodeFunc
	}
	var fields []field
	end := "{}"
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous || f.Tag.Get("json") != "" {
			return unsupported(t) // promoted fields and tags change the encoding
		}
		if !f.IsExported() {
			continue
		}
		sep := ","
		if len(fields) == 0 {
			sep, end = "{", "}"
		}
		fields = append(fields, field{i, sep + `"` + f.Name + `":`, compileDecoder(f.Type)})
	}
	return func(d *decoder, v reflect.Value) error {
		for _, f := range fields {
			if !d.literal(f.name) {
				return d.errorf("want %s", f.name)
			}
			if err := f.dec(d, v.Field(f.index)); err != nil {
				return err
			}
		}
		if !d.literal(end) {
			return d.errorf("want %s", end)
		}
		return nil
	}
}

func arrayDecoder(t reflect.Type) decodeFunc {
	elem, n := compileDecoder(t.Elem()), t.Len()
	return func(d *decoder, v reflect.Value) error {
		if !d.literal("[") {
			return d.errorf("want [")
		}
		for i := 0; i < n; i++ {
			if i > 0 && !d.literal(",") {
				return d.errorf("want %d elements", n)
			}
			if err := elem(d, v.Index(i)); err != nil {
				return err
			}
		}
		if !d.literal("]") {
			return d.errorf("want %d elements", n)
		}
		return nil
	}
}

func sliceDecoder(t reflect.Type) decodeFunc {
	elem := compileDecoder(t.Elem())
	return func(d *decoder, v reflect.Value) error {
		switch {
		case d.literal("null"):
			return nil
		case d.literal("[]"):
			v.Set(reflect.MakeSlice(t, 0, 0))
			return nil
		case !d.literal("["):
			return d.errorf("want [ or null")
		}
		for i := 0; ; i++ {
			if i == v.Cap() {
				v.Grow(1)
			}
			v.SetLen(i + 1)
			if err := elem(d, v.Index(i)); err != nil {
				return err
			}
			if d.literal("]") {
				return nil
			}
			if !d.literal(",") {
				return d.errorf("want , or ]")
			}
		}
	}
}

func mapDecoder(t reflect.Type) decodeFunc {
	elem := compileDecoder(t.Elem())
	return func(d *decoder, v reflect.Value) error {
		switch {
		case d.literal("null"):
			return nil
		case !d.literal("{"):
			return d.errorf("want { or null")
		}
		v.Set(reflect.MakeMap(t))
		if d.literal("}") {
			return nil
		}
		e := reflect.New(t.Elem()).Elem()
		for i, prev := 0, ""; ; i++ {
			k, err := d.str()
			if err != nil {
				return err
			}
			if i > 0 && k <= prev {
				return d.errorf("map keys out of order")
			}
			if !d.literal(":") {
				return d.errorf("want :")
			}
			e.SetZero()
			if err := elem(d, e); err != nil {
				return err
			}
			v.SetMapIndex(reflect.ValueOf(k), e)
			if d.literal("}") {
				return nil
			}
			if !d.literal(",") {
				return d.errorf("want , or }")
			}
			prev = k
		}
	}
}

func pointerDecoder(t reflect.Type) decodeFunc {
	elem := compileDecoder(t.Elem())
	return func(d *decoder, v reflect.Value) error {
		if d.literal("null") {
			return nil
		}
		p := reflect.New(t.Elem())
		if err := elem(d, p.Elem()); err != nil {
			return err
		}
		v.Set(p)
		return nil
	}
}

// decodeUnmarshaler hands the object or array at the read position to
// v's UnmarshalJSON, which validates it.
func decodeUnmarshaler(d *decoder, v reflect.Value) error {
	if d.off >= len(d.data) || d.data[d.off] != '{' && d.data[d.off] != '[' {
		return d.errorf("want an object or array")
	}
	depth, i := 0, d.off
	for ; i < len(d.data); i++ {
		switch d.data[i] {
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case '"':
			for i++; i < len(d.data) && d.data[i] != '"'; i++ {
				if d.data[i] == '\\' {
					i++
				}
			}
		case ' ', '\t', '\n', '\r':
			return d.errorf("whitespace")
		}
		if depth == 0 {
			break
		}
	}
	if i >= len(d.data) {
		return d.errorf("object or array does not end")
	}
	data := d.data[d.off : i+1]
	if err := v.Addr().Interface().(json.Unmarshaler).UnmarshalJSON(data); err != nil {
		return d.errorf("%v", err)
	}
	d.off = i + 1
	return nil
}
