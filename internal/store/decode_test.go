package store

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cover"
)

// fillStats sets every integer leaf under v to a distinct non-zero
// value, and gives each slice n elements, each map n entries (n <= 2)
// and the coverage pointer a set with one counted and one inapplicable
// event when n > 0, an empty one when n is 0; with n < 0 they stay nil.
func fillStats(t *testing.T, v reflect.Value, path string, n int, next *uint64) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillStats(t, v.Field(i), path+"."+v.Type().Field(i).Name, n, next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillStats(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n, next)
		}
	case reflect.Slice:
		if n >= 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fillStats(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n, next)
			}
		}
	case reflect.Map:
		if n >= 0 {
			v.Set(reflect.MakeMap(v.Type()))
			for _, k := range []string{core.ChanSyncDelay, core.ChanCacheDelay}[:n] {
				e := reflect.New(v.Type().Elem()).Elem()
				fillStats(t, e, path+"["+k+"]", n, next)
				v.SetMapIndex(reflect.ValueOf(k), e)
			}
		}
	case reflect.Pointer:
		if v.Type() != reflect.TypeOf(&cover.Set{}) {
			t.Fatalf("%s: the test cannot fill a %s", path, v.Type())
		}
		if n >= 0 {
			set := cover.NewSet()
			if n > 0 {
				set.Hit(cover.EvFetchTakenTrunc)
				set.MarkInapplicable(cover.EvFetchWrongPath)
			}
			v.Set(reflect.ValueOf(set))
		}
	case reflect.Uint64:
		v.SetUint(math.MaxUint64 - *next)
	case reflect.Int64:
		v.SetInt(math.MinInt64 + int64(*next))
	default:
		t.Fatalf("%s: the test cannot fill kind %s", path, v.Kind())
	}
}

// TestEveryStatsFieldRoundTrips: a Stats with every leaf set comes back
// from Put and Get deep-equal, with its slices, maps and pointers
// filled, empty, or nil. A Stats field of a kind decodeStats cannot
// read fails here, where otherwise every hit would silently become a
// repair.
func TestEveryStatsFieldRoundTrips(t *testing.T) {
	for name, n := range map[string]int{"filled": 2, "empty": 0, "nil": -1} {
		t.Run(name, func(t *testing.T) {
			want := &core.Stats{}
			var next uint64
			fillStats(t, reflect.ValueOf(want).Elem(), "Stats", n, &next)
			s, err := Open(filepath.Join(t.TempDir(), "store"), t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("k", want); err != nil {
				t.Fatal(err)
			}
			got, ok := s.Get("k")
			if !ok {
				t.Fatal("the committed cell missed")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round trip changed the stats:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// FuzzDecodeStats: no input panics the strict decoder, and whatever it
// accepts encoding/json decodes to the same Stats. The seed corpus in
// testdata/fuzz/FuzzDecodeStats holds payloads of real cells.
func FuzzDecodeStats(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeStats(data)
		if err != nil {
			return
		}
		want := &core.Stats{}
		if err := json.Unmarshal(data, want); err != nil {
			t.Fatalf("accepted a payload encoding/json rejects: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded\n%+v\nencoding/json decodes\n%+v", got, want)
		}
	})
}
