"""Dataflow scheduling: schedules, the skyline scheduler, baselines."""

from repro.scheduling.estimation import perturb_dataflow, recost_schedule_on_actuals
from repro.scheduling.online_lb import OnlineLoadBalanceScheduler
from repro.scheduling.schedule import (
    Assignment,
    IdleSlot,
    InfeasibleScheduleError,
    Schedule,
)
from repro.scheduling.skyline import SkylineScheduler

__all__ = [
    "perturb_dataflow",
    "recost_schedule_on_actuals",
    "OnlineLoadBalanceScheduler",
    "Assignment",
    "IdleSlot",
    "InfeasibleScheduleError",
    "Schedule",
    "SkylineScheduler",
]
