package gen

import (
	"strings"
	"testing"

	"graphtrek/internal/gstore"
	"graphtrek/internal/model"
)

const sampleTrace = `
# one year of synthetic I/O activity
user sam
user john

job J100 sam 140050
job J101 john 140200

exec E1 J100 modelA
exec E2 J100 modelB
exec E3 J101 modelA

read E1 /data/input.h5
read E2 /data/input.h5
write E1 /data/out-1.nc 140060
write E3 /data/out-1.nc 140250
read E3 /apps/solver.exe
`

func importSample(t *testing.T) (*gstore.MemStore, ImportStats) {
	t.Helper()
	g := gstore.NewMemStore()
	stats, err := ImportTrace(strings.NewReader(sampleTrace), memSink{g})
	if err != nil {
		t.Fatal(err)
	}
	return g, stats
}

func TestImportTraceCounts(t *testing.T) {
	_, stats := importSample(t)
	want := ImportStats{Users: 2, Jobs: 2, Executions: 3, Files: 3,
		Edges: 2 + 3 + 3*2 + 2, Lines: 12}
	if stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}
	if !strings.Contains(stats.String(), "users=2") {
		t.Errorf("String() = %q", stats.String())
	}
}

func TestImportTraceSchema(t *testing.T) {
	g, _ := importSample(t)
	// sam (declared first) must own J100 whose E1 wrote /data/out-1.nc.
	var sam model.VertexID = ^model.VertexID(0)
	g.ScanVerticesByLabel("User", func(id model.VertexID) bool {
		v, _, _ := g.GetVertex(id)
		if v.Props["name"].Str() == "sam" {
			sam = id
		}
		return true
	})
	if sam == ^model.VertexID(0) {
		t.Fatal("sam not found")
	}
	jobs := 0
	g.ScanEdges(sam, "run", func(e model.Edge) bool {
		jobs++
		if e.Props["ts"].I64() != 140050 {
			t.Errorf("run ts = %v", e.Props["ts"])
		}
		return true
	})
	if jobs != 1 {
		t.Errorf("sam owns %d jobs", jobs)
	}
	// The shared input file must have two readBy edges.
	var input model.VertexID = ^model.VertexID(0)
	g.ScanVerticesByLabel("File", func(id model.VertexID) bool {
		v, _, _ := g.GetVertex(id)
		if v.Props["name"].Str() == "/data/input.h5" {
			input = id
		}
		return true
	})
	readers := 0
	g.ScanEdges(input, "readBy", func(model.Edge) bool { readers++; return true })
	if readers != 2 {
		t.Errorf("input.h5 has %d readers, want 2", readers)
	}
}

func TestImportTraceErrors(t *testing.T) {
	cases := map[string]string{
		"unknown kind":   "frobnicate x",
		"user arity":     "user a b",
		"job arity":      "job J1 sam",
		"job bad user":   "job J1 ghost 1",
		"job bad ts":     "user sam\njob J1 sam xyz",
		"dup job":        "user sam\njob J1 sam 1\njob J1 sam 2",
		"exec arity":     "exec E1 J1",
		"exec bad job":   "exec E1 ghost m",
		"dup exec":       "user s\njob J1 s 1\nexec E1 J1 m\nexec E1 J1 m",
		"read arity":     "read E1",
		"read bad exec":  "read E1 /f",
		"write bad exec": "write E1 /f 5",
		"write bad ts":   "user s\njob J1 s 1\nexec E1 J1 m\nwrite E1 /f xs",
	}
	for name, trace := range cases {
		if _, err := ImportTrace(strings.NewReader(trace), memSink{gstore.NewMemStore()}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestImportTraceIdempotentUserRedeclaration(t *testing.T) {
	g := gstore.NewMemStore()
	stats, err := ImportTrace(strings.NewReader("user sam\nuser sam\n"), memSink{g})
	if err != nil || stats.Users != 1 {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}
}
