package main

import (
	"os"
	"path/filepath"
	"testing"
)

const testCSV = `color,size,y
red,1,0
blue,2,1
red,1,0
blue,2,1
green,3,0
red,1,1
blue,2,1
green,3,0
red,1,0
blue,2,1
`

// TestLoadRejectsUnknownTask: -task names the model to fit; a value that is
// neither class nor reg is an error, as it is for sliceline, instead of
// silently fitting mlogit.
func TestLoadRejectsUnknownTask(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(testCSV), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, task := range []string{"class", "reg"} {
		if _, e, err := load("", path, "y", task, 5, 0, 1); err != nil || len(e) != 10 {
			t.Fatalf("task %s: %d errors, err %v", task, len(e), err)
		}
	}
	if _, _, err := load("", path, "y", "bogus", 5, 0, 1); err == nil {
		t.Fatal("task bogus: want error")
	}
}
