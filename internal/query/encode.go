package query

import (
	"encoding/binary"
	"fmt"

	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

// Plan wire encoding, used when the client ships a GTravel instance to the
// coordinator and the coordinator broadcasts it to the backend servers.
//
//	[version: 1 byte][step count: uvarint] then per step:
//	[flags: 1 byte (bit0 rtn)][edge label][edge filters][vertex filters]
//	[source label][source id count: uvarint][source ids: uvarint each]

const planVersion = 1

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func consumeString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return "", nil, fmt.Errorf("query: truncated string")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

// Encode serializes the plan.
func (p *Plan) Encode() []byte {
	b := []byte{planVersion}
	b = binary.AppendUvarint(b, uint64(len(p.Steps)))
	for _, s := range p.Steps {
		var flags byte
		if s.Rtn {
			flags |= 1
		}
		b = append(b, flags)
		b = appendString(b, s.EdgeLabel)
		b = property.AppendFilters(b, s.EdgeFilters)
		b = property.AppendFilters(b, s.VertexFilters)
		b = appendString(b, s.SourceLabel)
		b = binary.AppendUvarint(b, uint64(len(s.SourceIDs)))
		for _, id := range s.SourceIDs {
			b = binary.AppendUvarint(b, uint64(id))
		}
	}
	return b
}

// DecodePlan parses a plan encoded by Encode and validates it.
func DecodePlan(b []byte) (*Plan, error) {
	if len(b) < 2 || b[0] != planVersion {
		return nil, fmt.Errorf("query: bad plan header")
	}
	b = b[1:]
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("query: truncated plan")
	}
	b = b[sz:]
	// A step encodes to at least 6 bytes; reject a count that cannot fit
	// before allocating (plans arrive off the network).
	if n > uint64(len(b))/6 {
		return nil, fmt.Errorf("query: plan declares %d steps in %d bytes", n, len(b))
	}
	p := &Plan{Steps: make([]Step, 0, n)}
	for i := uint64(0); i < n; i++ {
		if len(b) < 1 {
			return nil, fmt.Errorf("query: truncated step %d", i)
		}
		var s Step
		s.Rtn = b[0]&1 != 0
		b = b[1:]
		var err error
		if s.EdgeLabel, b, err = consumeString(b); err != nil {
			return nil, err
		}
		if s.EdgeFilters, b, err = property.ConsumeFilters(b); err != nil {
			return nil, err
		}
		if s.VertexFilters, b, err = property.ConsumeFilters(b); err != nil {
			return nil, err
		}
		if s.SourceLabel, b, err = consumeString(b); err != nil {
			return nil, err
		}
		cnt, sz := binary.Uvarint(b)
		if sz <= 0 {
			return nil, fmt.Errorf("query: truncated source ids")
		}
		b = b[sz:]
		if cnt > uint64(len(b)) { // each id takes at least one byte
			return nil, fmt.Errorf("query: plan declares %d source ids in %d bytes", cnt, len(b))
		}
		for j := uint64(0); j < cnt; j++ {
			id, sz := binary.Uvarint(b)
			if sz <= 0 {
				return nil, fmt.Errorf("query: truncated source id")
			}
			b = b[sz:]
			s.SourceIDs = append(s.SourceIDs, model.VertexID(id))
		}
		p.Steps = append(p.Steps, s)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("query: %d trailing bytes in plan", len(b))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.compile()
	return p, nil
}
