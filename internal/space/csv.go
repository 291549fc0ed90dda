package space

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV codec: the on-disk form of measurement tables and checkpointed
// histories. A header row names the parameters in order, then one
// metric column; each further row is one configuration and its metric
// value. Discrete parameters are written as level labels, continuous
// values and metrics with 17 significant digits, which round-trip.

// WriteCSV writes configs and their values under a header of parameter
// names plus metric. Every config must be valid in the space.
func (s *Space) WriteCSV(w io.Writer, metric string, configs []Config, values []float64) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(s.params)+1)
	for _, p := range s.params {
		header = append(header, p.Name)
	}
	header = append(header, metric)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i, c := range configs {
		for j, p := range s.params {
			if p.Kind == DiscreteKind {
				row[j] = p.Level(int(c[j]))
			} else {
				row[j] = strconv.FormatFloat(c[j], 'g', 17, 64)
			}
		}
		row[len(row)-1] = strconv.FormatFloat(values[i], 'g', 17, 64)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses rows written by WriteCSV and returns the metric
// column's name, the configurations and their values. The header must
// name the space's parameters in order. Discrete labels must name a
// level and numbers must parse; a continuous value is not checked
// against its bounds, so callers that need valid rows Check them.
func (s *Space) ReadCSV(r io.Reader) (metric string, configs []Config, values []float64, err error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return "", nil, nil, fmt.Errorf("space: reading CSV header: %w", err)
	}
	np := len(s.params)
	if len(header) != np+1 {
		return "", nil, nil, fmt.Errorf("space: CSV header has %d columns, want %d", len(header), np+1)
	}
	for j, p := range s.params {
		if header[j] != p.Name {
			return "", nil, nil, fmt.Errorf("space: CSV column %d is %q, want %q", j, header[j], p.Name)
		}
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", nil, nil, fmt.Errorf("space: CSV line %d: %w", line, err)
		}
		c := make(Config, np)
		for j, p := range s.params {
			if p.Kind == DiscreteKind {
				idx := p.LevelIndex(rec[j])
				if idx < 0 {
					return "", nil, nil, fmt.Errorf("space: CSV line %d: unknown level %q for %q", line, rec[j], p.Name)
				}
				c[j] = float64(idx)
			} else if c[j], err = strconv.ParseFloat(rec[j], 64); err != nil {
				return "", nil, nil, fmt.Errorf("space: CSV line %d: %w", line, err)
			}
		}
		v, err := strconv.ParseFloat(rec[np], 64)
		if err != nil {
			return "", nil, nil, fmt.Errorf("space: CSV line %d: %w", line, err)
		}
		configs = append(configs, c)
		values = append(values, v)
	}
	return header[np], configs, values, nil
}
