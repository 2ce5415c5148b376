package gen

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

// This file implements the ingestion path of the paper's §VII-D: the
// authors imported one year of Darshan I/O characterization logs into the
// property graph. Darshan's binary logs are not redistributable at that
// granularity, so the importer consumes an equivalent line-oriented trace
// format carrying the same entities and relationships:
//
//	# comment or blank line
//	user <name>
//	job <id> <user-name> <start-ts>
//	exec <id> <job-id> <model>
//	read <exec-id> <file-path>
//	write <exec-id> <file-path> <ts>
//
// Every identifier is interned into a dense vertex id per namespace, and
// the edges mirror the generator's schema: run, hasExecutions, read +
// readBy, write — so an imported graph answers exactly the Table III audit
// query.

// ImportStats summarizes one trace import.
type ImportStats struct {
	Users, Jobs, Executions, Files int
	Edges                          int
	Lines                          int
}

// String renders the stats in Table II's shape.
func (s ImportStats) String() string {
	return fmt.Sprintf("users=%d jobs=%d executions=%d files=%d edges=%d",
		s.Users, s.Jobs, s.Executions, s.Files, s.Edges)
}

// traceImporter interns entity names and streams graph elements out.
type traceImporter struct {
	sink   Sink
	nextID model.VertexID
	users  map[string]model.VertexID
	jobs   map[string]model.VertexID
	execs  map[string]model.VertexID
	files  map[string]model.VertexID
	stats  ImportStats
}

// ImportTrace parses a trace stream into the sink. Lines referencing
// entities that were never declared are an error (a malformed trace must
// not silently produce a partial graph).
func ImportTrace(r io.Reader, sink Sink) (ImportStats, error) {
	imp := &traceImporter{
		sink:  sink,
		users: make(map[string]model.VertexID),
		jobs:  make(map[string]model.VertexID),
		execs: make(map[string]model.VertexID),
		files: make(map[string]model.VertexID),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		imp.stats.Lines++
		if err := imp.line(line); err != nil {
			return imp.stats, fmt.Errorf("gen: trace line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return imp.stats, fmt.Errorf("gen: trace read: %w", err)
	}
	return imp.stats, nil
}

func (imp *traceImporter) line(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "user":
		if len(fields) != 2 {
			return fmt.Errorf("user takes 1 field, got %d", len(fields)-1)
		}
		return imp.addUser(fields[1])
	case "job":
		if len(fields) != 4 {
			return fmt.Errorf("job takes 3 fields, got %d", len(fields)-1)
		}
		return imp.addJob(fields[1], fields[2], fields[3])
	case "exec":
		if len(fields) != 4 {
			return fmt.Errorf("exec takes 3 fields, got %d", len(fields)-1)
		}
		return imp.addExec(fields[1], fields[2], fields[3])
	case "read":
		if len(fields) != 3 {
			return fmt.Errorf("read takes 2 fields, got %d", len(fields)-1)
		}
		return imp.addRead(fields[1], fields[2])
	case "write":
		if len(fields) != 4 {
			return fmt.Errorf("write takes 3 fields, got %d", len(fields)-1)
		}
		return imp.addWrite(fields[1], fields[2], fields[3])
	default:
		return fmt.Errorf("unknown record kind %q", fields[0])
	}
}

func (imp *traceImporter) alloc() model.VertexID {
	id := imp.nextID
	imp.nextID++
	return id
}

func (imp *traceImporter) addUser(name string) error {
	if _, ok := imp.users[name]; ok {
		return nil // idempotent redeclaration
	}
	id := imp.alloc()
	imp.users[name] = id
	imp.stats.Users++
	return imp.sink.AddVertex(model.Vertex{
		ID: id, Label: "User",
		Props: property.Map{"name": property.String(name)},
	})
}

func (imp *traceImporter) addJob(jobID, userName, ts string) error {
	owner, ok := imp.users[userName]
	if !ok {
		return fmt.Errorf("job %s references undeclared user %s", jobID, userName)
	}
	if _, dup := imp.jobs[jobID]; dup {
		return fmt.Errorf("duplicate job id %s", jobID)
	}
	tsv, err := strconv.ParseInt(ts, 10, 64)
	if err != nil {
		return fmt.Errorf("job %s: bad timestamp %q", jobID, ts)
	}
	id := imp.alloc()
	imp.jobs[jobID] = id
	imp.stats.Jobs++
	if err := imp.sink.AddVertex(model.Vertex{
		ID: id, Label: "Job",
		Props: property.Map{"name": property.String(jobID)},
	}); err != nil {
		return err
	}
	imp.stats.Edges++
	return imp.sink.AddEdge(model.Edge{
		Src: owner, Dst: id, Label: "run",
		Props: property.Map{"ts": property.Int(tsv)},
	})
}

func (imp *traceImporter) addExec(execID, jobID, modelName string) error {
	job, ok := imp.jobs[jobID]
	if !ok {
		return fmt.Errorf("exec %s references undeclared job %s", execID, jobID)
	}
	if _, dup := imp.execs[execID]; dup {
		return fmt.Errorf("duplicate exec id %s", execID)
	}
	id := imp.alloc()
	imp.execs[execID] = id
	imp.stats.Executions++
	if err := imp.sink.AddVertex(model.Vertex{
		ID: id, Label: "Execution",
		Props: property.Map{"name": property.String(execID), "model": property.String(modelName)},
	}); err != nil {
		return err
	}
	imp.stats.Edges++
	return imp.sink.AddEdge(model.Edge{Src: job, Dst: id, Label: "hasExecutions"})
}

func (imp *traceImporter) file(path string) (model.VertexID, error) {
	if id, ok := imp.files[path]; ok {
		return id, nil
	}
	id := imp.alloc()
	imp.files[path] = id
	imp.stats.Files++
	err := imp.sink.AddVertex(model.Vertex{
		ID: id, Label: "File",
		Props: property.Map{"name": property.String(path)},
	})
	return id, err
}

func (imp *traceImporter) addRead(execID, path string) error {
	exec, ok := imp.execs[execID]
	if !ok {
		return fmt.Errorf("read references undeclared exec %s", execID)
	}
	file, err := imp.file(path)
	if err != nil {
		return err
	}
	imp.stats.Edges += 2
	if err := imp.sink.AddEdge(model.Edge{Src: exec, Dst: file, Label: "read"}); err != nil {
		return err
	}
	return imp.sink.AddEdge(model.Edge{Src: file, Dst: exec, Label: "readBy"})
}

func (imp *traceImporter) addWrite(execID, path, ts string) error {
	exec, ok := imp.execs[execID]
	if !ok {
		return fmt.Errorf("write references undeclared exec %s", execID)
	}
	tsv, err := strconv.ParseInt(ts, 10, 64)
	if err != nil {
		return fmt.Errorf("write by %s: bad timestamp %q", execID, ts)
	}
	file, err := imp.file(path)
	if err != nil {
		return err
	}
	imp.stats.Edges++
	return imp.sink.AddEdge(model.Edge{
		Src: exec, Dst: file, Label: "write",
		Props: property.Map{"ts": property.Int(tsv)},
	})
}
