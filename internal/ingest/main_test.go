package ingest

import (
	"testing"

	"vaq/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
