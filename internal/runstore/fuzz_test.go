package runstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzLedgerReplay feeds arbitrary file contents to Open and Load, the
// replay a resumed sweep journal starts from. The contract under fuzzing:
// each returns records or a clean error, never a panic, and both agree; an
// Open that succeeds leaves a file that an Append extends into a ledger
// Load reads whole, the appended record last. Seeded with well-formed
// records, torn and unterminated tails, CRLF line ends, garbage and a
// future version. Run offline via `make fuzz`.
func FuzzLedgerReplay(f *testing.F) {
	rec := testRecord("00000000000000aa", "cfg:prog", time.Millisecond)
	rec.V = SchemaVersion
	line, err := json.Marshal(rec)
	if err != nil {
		f.Fatal(err)
	}
	line = append(line, '\n')
	f.Add(line)
	f.Add(append(bytes.Clone(line), line[:len(line)/2]...))
	f.Add(line[:len(line)-1])
	f.Add(append(bytes.Replace(line, []byte("\n"), []byte("\r\n"), 1), line...))
	f.Add(append(bytes.Clone(line), "!!not json!!\n"...))
	f.Add([]byte(`{"v":2,"kernel":"x","iq":32,"nblt":8}` + "\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "runs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, lerr := Load(path)
		l, oerr := Open(path)
		if (lerr == nil) != (oerr == nil) {
			t.Fatalf("Load error %v, Open error %v", lerr, oerr)
		}
		if oerr != nil {
			return
		}
		defer l.Close()
		if l.Len() != len(loaded) {
			t.Fatalf("Open replayed %d records, Load %d", l.Len(), len(loaded))
		}
		next := testRecord("", "cfg:prog", time.Millisecond)
		if err := l.Append(&next); err != nil {
			t.Fatal(err)
		}
		recs, err := Load(path)
		if err != nil {
			t.Fatalf("Load after an append: %v", err)
		}
		if len(recs) != len(loaded)+1 || recs[len(recs)-1].ID != next.ID {
			t.Fatalf("after an append Load reads %d records, want the %d replayed plus %s", len(recs), len(loaded), next.ID)
		}
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(whole, []byte("\n")); n != len(recs) || whole[len(whole)-1] != '\n' {
			t.Fatalf("the ledger holds %d lines for %d records", n, len(recs))
		}
	})
}
