package engine_test

import (
	"cubrick/internal/engine"
	"cubrick/internal/oracle"
)

func init() {
	engine.Oracle.Run = oracle.Run
	engine.Oracle.Equal = oracle.Equal
	engine.Oracle.Answer = oracle.Answer
	engine.Oracle.NewTrial = oracle.NewTrial
}
