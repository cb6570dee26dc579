package testutil

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Decoder is one named frame decoder checked by CheckCorpusTable.
type Decoder struct {
	Name   string
	Decode func([]byte) (any, error)
}

// CheckCorpusTable decodes every file under dir with every decoder and
// compares the outcome table with the committed one at tablePath: one
// line per (file, decoder), "accept <digest>" with a Digest of the
// decoded value, or "reject". Every error must wrap bad. The table pins
// what each decoder accepts and what it decodes to, so a codec refactor
// that changes either fails here. Set UPDATE_CORPUS_TABLE=1 to rewrite
// the table from the current code.
func CheckCorpusTable(t *testing.T, dir, tablePath string, decoders []Decoder, bad error) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corruption corpus missing: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("corruption corpus empty")
	}
	var b strings.Builder
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range decoders {
			v, err := d.Decode(data)
			switch {
			case err == nil:
				fmt.Fprintf(&b, "%s %s accept %s\n", e.Name(), d.Name, Digest(v))
			case errors.Is(err, bad):
				fmt.Fprintf(&b, "%s %s reject\n", e.Name(), d.Name)
			default:
				t.Fatalf("%s %s: unexpected error %v", e.Name(), d.Name, err)
			}
		}
	}
	got := b.String()
	if os.Getenv("UPDATE_CORPUS_TABLE") == "1" {
		if err := os.WriteFile(tablePath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(tablePath)
	if err != nil {
		t.Fatalf("corpus table missing: %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("corpus table line %d:\n  got  %q\n  want %q", i+1, g, w)
		}
	}
}

// Digest returns an FNV-64a fingerprint of v's whole value, unexported
// fields included. Pointers are followed rather than printed as
// addresses, and nil is told apart from empty, so equal values digest
// equally in every run.
func Digest(v any) string {
	h := fnv.New64a()
	digestValue(h, reflect.ValueOf(v))
	return fmt.Sprintf("%016x", h.Sum64())
}

func digestValue(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		fmt.Fprint(w, "invalid;")
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprint(w, "nil;")
			return
		}
		digestValue(w, v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			fmt.Fprint(w, "nil;")
			return
		}
		fallthrough
	case reflect.Array:
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			digestValue(w, v.Index(i))
		}
		fmt.Fprint(w, "]")
	case reflect.Struct:
		fmt.Fprintf(w, "%s{", v.Type())
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(w, "%s=", v.Type().Field(i).Name)
			digestValue(w, v.Field(i))
		}
		fmt.Fprint(w, "}")
	case reflect.String:
		fmt.Fprintf(w, "%q;", v.String())
	case reflect.Bool:
		fmt.Fprintf(w, "%t;", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d;", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(w, "%d;", v.Uint())
	default:
		panic(fmt.Sprintf("testutil: Digest cannot walk %s", v.Type()))
	}
}
