package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestDatapathRunSmoke exercises the datapath subcommand end to end at toy
// scale the way a user would invoke it, and checks the CSV it emits is
// well-formed and conservative: delivered cells never exceed offered.
func TestDatapathRunSmoke(t *testing.T) {
	// The forwarder runs on one goroutine, so the single-core run is the
	// only case; the subtest keeps the name it had when -cores existed.
	t.Run("cores=1", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "datapath.csv")
		err := datapathRun([]string{
			"-frames", "240", "-n", "2", "-hops", "2", "-csv", out,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < 2 {
			t.Fatalf("CSV has %d rows, want header plus data", len(rows))
		}
		if got := rows[0][0]; got != "seconds" {
			t.Fatalf("header starts with %q", got)
		}
		var offered, delivered int64
		for _, r := range rows[1:] {
			if len(r) != 7 {
				t.Fatalf("row has %d columns: %v", len(r), r)
			}
			off, err := strconv.ParseInt(r[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			del, err := strconv.ParseInt(r[4], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			offered += off
			delivered += del
		}
		if offered == 0 {
			t.Fatal("replay offered no cells")
		}
		if delivered > offered {
			t.Fatalf("delivered %d > offered %d", delivered, offered)
		}
	})
}

func TestDatapathRunFlagValidation(t *testing.T) {
	if err := datapathRun([]string{"-hops", "0"}); err == nil {
		t.Fatal("zero hops accepted")
	}
	if err := datapathRun([]string{"-hopdelay", "-1"}); err == nil {
		t.Fatal("negative hop delay accepted")
	}
}
